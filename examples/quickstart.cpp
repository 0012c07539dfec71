// Quickstart: build an adaptive octree over a particle cloud, run one AFMM
// gravity solve on the simulated heterogeneous node, and check the result
// against direct summation on a sample of bodies.
//
//   $ ./quickstart [N]
#include <cstdio>
#include <cstdlib>

#include "core/fmm_solver.hpp"
#include "dist/distributions.hpp"
#include "util/rng.hpp"

#include "example_args.hpp"

using namespace afmm;

namespace {

int run(int argc, char** argv) {
  const int n = example::positive_arg(argc, argv, 1, "N", 20000);

  // 1. Make a particle distribution (a Plummer sphere here).
  Rng rng(42);
  PlummerOptions opt;
  opt.scale_radius = 1.0;
  auto bodies = plummer(static_cast<std::size_t>(n), rng, opt);

  // 2. Build the adaptive spatial decomposition: subdivide any cell holding
  //    more than S bodies.
  TreeConfig tree_config = fit_cube(bodies.positions);
  tree_config.leaf_capacity = 64;  // S
  AdaptiveOctree tree;
  tree.build(bodies.positions, tree_config);
  std::printf("tree: %d nodes, %zu effective leaves, depth %d\n",
              tree.num_nodes(), tree.effective_leaves().size(),
              tree.effective_depth());

  // 3. Describe the heterogeneous node: 10 CPU cores for the expansion work,
  //    2 GPUs for the direct work. (The GPU is a faithful SIMT simulator --
  //    see gpusim/ -- so this runs anywhere.)
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));

  // 4. Solve. order = number of retained Taylor terms (accuracy knob).
  FmmConfig fmm;
  fmm.order = 6;
  GravitySolver solver(fmm, node);
  const auto result = solver.solve(tree, bodies.positions, bodies.masses);

  std::printf("solve: %llu P2P interactions, %llu M2L conversions\n",
              static_cast<unsigned long long>(result.stats.p2p_interactions),
              static_cast<unsigned long long>(result.stats.m2l_pairs));
  std::printf("virtual node times: CPU %.4fs  GPU %.4fs  -> compute %.4fs\n",
              result.times.cpu_seconds, result.times.gpu_seconds,
              result.times.compute_seconds());

  // 5. Spot-check accuracy against O(N^2) direct summation.
  const int sample = 50;
  double worst = 0.0;
  for (int s = 0; s < sample; ++s) {
    const auto i = static_cast<std::size_t>(rng.below(bodies.size()));
    GravityAccum exact;
    GravityKernel kernel;
    for (std::size_t j = 0; j < bodies.size(); ++j)
      kernel.accumulate(bodies.positions[i], static_cast<std::uint32_t>(i),
                        {bodies.positions[j], bodies.masses[j]},
                        static_cast<std::uint32_t>(j), exact);
    const double err =
        std::abs(result.potential[i] - exact.pot) / std::abs(exact.pot);
    worst = std::max(worst, err);
  }
  std::printf("max relative potential error over %d sampled bodies: %.2e\n",
              sample, worst);
  return worst < 1e-3 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return example::guarded_main("quickstart [N]",
                               [&] { return run(argc, argv); });
}
