#include "kernels/gravity.hpp"

#include <stdexcept>

#include "util/config_check.hpp"

namespace afmm {

GravityKernel::GravityKernel(double softening)
    : eps2_(softening * softening) {
  ConfigCheck("GravityKernel").non_negative("softening", softening);
}

void gravity_direct(const GravityKernel& kernel, std::span<const Vec3> targets,
                    std::span<const std::uint32_t> target_ids,
                    std::span<const GravitySource> sources,
                    std::span<const std::uint32_t> source_ids,
                    std::span<GravityAccum> out) {
  if (targets.size() != target_ids.size() || targets.size() != out.size() ||
      sources.size() != source_ids.size())
    throw std::invalid_argument("gravity_direct: size mismatch");
  for (std::size_t t = 0; t < targets.size(); ++t) {
    GravityAccum acc;
    for (std::size_t s = 0; s < sources.size(); ++s)
      kernel.accumulate(targets[t], target_ids[t], sources[s], source_ids[s],
                        acc);
    out[t] += acc;
  }
}

std::vector<GravityAccum> gravity_direct_all(const GravityKernel& kernel,
                                             std::span<const Vec3> positions,
                                             std::span<const double> charges) {
  const std::size_t n = positions.size();
  std::vector<GravitySource> sources(n);
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    sources[i] = {positions[i], charges[i]};
    ids[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<GravityAccum> out(n);
  gravity_direct(kernel, positions, ids, sources, ids, out);
  return out;
}

}  // namespace afmm
