#include "gpusim/gpu_model.hpp"

#include <algorithm>

#include "util/config_check.hpp"

namespace afmm {

void GpuDeviceConfig::validate() const {
  const ConfigCheck check("GpuDeviceConfig");
  check.at_least("num_sms", num_sms, 1);
  check.at_least("block_size", block_size, 1);
  check.at_least("warp_size", warp_size, 1);
  check.positive("clock_ghz", clock_ghz);
  check.positive("sm_flops_per_cycle", sm_flops_per_cycle);
  check.non_negative("cycles_per_tile_load", cycles_per_tile_load);
  check.non_negative("cycles_per_block", cycles_per_block);
  check.non_negative("launch_overhead_us", launch_overhead_us);
}

double block_cycles(const GpuDeviceConfig& dev, int lanes,
                    std::uint64_t sources, double flops_per_interaction) {
  const auto bs = static_cast<std::uint64_t>(dev.block_size);
  const std::uint64_t tiles = (sources + bs - 1) / bs;
  double cycles = dev.cycles_per_block;
  // Every lane of the block marches over every staged source in lock step,
  // so the compute cost is lanes * sources interactions' worth of flops
  // regardless of how many lanes hold a real target.
  cycles += static_cast<double>(tiles) * dev.cycles_per_tile_load;
  cycles += static_cast<double>(sources) * static_cast<double>(lanes) *
            flops_per_interaction / dev.sm_flops_per_cycle;
  return cycles;
}

GpuKernelTiming simulate_kernel(const GpuDeviceConfig& dev,
                                const std::vector<GpuWorkShape>& shapes,
                                double flops_per_interaction) {
  GpuKernelTiming t;
  // SM next-free cycle counters; blocks are dispatched in submission order to
  // the earliest-free SM (the hardware block scheduler is greedy).
  std::vector<double> sm_free(static_cast<std::size_t>(dev.num_sms), 0.0);
  double paid_lane_work = 0.0;

  auto dispatch = [&](int lanes, std::uint64_t sources) {
    const double cyc = block_cycles(dev, lanes, sources, flops_per_interaction);
    auto it = std::min_element(sm_free.begin(), sm_free.end());
    *it += cyc;
    ++t.blocks;
    paid_lane_work += static_cast<double>(lanes) * static_cast<double>(sources);
  };

  for (const auto& w : shapes) {
    if (w.targets == 0 || w.sources == 0) continue;
    const auto bs = static_cast<std::uint32_t>(dev.block_size);
    const auto ws = static_cast<std::uint32_t>(dev.warp_size);
    // Full blocks plus one warp-granular remainder block.
    const std::uint32_t full_blocks = w.targets / bs;
    const std::uint32_t rem = w.targets % bs;
    for (std::uint32_t b = 0; b < full_blocks; ++b)
      dispatch(static_cast<int>(bs), w.sources);
    if (rem > 0) dispatch(static_cast<int>((rem + ws - 1) / ws * ws), w.sources);
    t.interactions += static_cast<std::uint64_t>(w.targets) * w.sources;
  }

  const double makespan =
      sm_free.empty() ? 0.0 : *std::max_element(sm_free.begin(), sm_free.end());
  t.seconds = makespan / (dev.clock_ghz * 1e9) + dev.launch_overhead_us * 1e-6;
  t.busy_lane_fraction =
      paid_lane_work > 0.0 ? static_cast<double>(t.interactions) / paid_lane_work
                           : 0.0;
  return t;
}

}  // namespace afmm
