// Execution-cost model of a CUDA-style SIMT device running the paper's
// all-pairs P2P kernel (Section III.C, adapted from [Nyland, Harris & Prins,
// GPU Gems 3]).
//
// The real hardware (4x Tesla C2050 in the paper) is not available in this
// environment, so the device is SIMULATED: the same blocking scheme is
// executed in software -- one thread per target body, sources staged
// cooperatively in block-sized tiles, a lock-step march over each tile --
// producing (a) exactly the sums the kernel would produce, in the same
// association order, and (b) a virtual kernel time from the cycle model
// below. The cycle model deliberately reproduces the efficiency hazards the
// paper's load balancer must react to:
//
//   * a block always pays for block_size lanes, so small target leaves with
//     many sources waste threads (Section III.C's stated concern),
//   * per-tile staging cost (cooperative loads),
//   * per-block scheduling overhead and per-kernel launch overhead,
//   * blocks are list-scheduled onto a finite number of SMs, so the kernel
//     time is a makespan, not a smooth throughput division.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace afmm {

struct GpuDeviceConfig {
  std::string name = "simulated-C2050";
  int num_sms = 14;
  int block_size = 256;
  int warp_size = 32;
  double clock_ghz = 1.15;
  // SM arithmetic throughput in flops per cycle. The theoretical Fermi peak
  // is 64 (32 cores x FMA); the all-pairs kernel sustains roughly half of it
  // (rsqrt + non-FMA ops), which calibrates the device to the ~20-25
  // G-interactions/s a real C2050 achieves on this kernel.
  double sm_flops_per_cycle = 32.0;
  // Cycles to cooperatively stage one block-sized source tile.
  double cycles_per_tile_load = 400.0;
  // Fixed scheduling cost per block.
  double cycles_per_block = 2000.0;
  // Host-side kernel launch latency.
  double launch_overhead_us = 10.0;

  // Throws std::invalid_argument naming the field and the value unless the
  // counts are >= 1, the clock and the flop rate finite and > 0, and the
  // cycle costs and the launch overhead finite and >= 0.
  void validate() const;
};

// One P2P work unit as seen by the device: `targets` bodies in the target
// leaf, `sources` total source bodies (concatenated over its source list),
// `flops_per_interaction` from the physics kernel.
struct GpuWorkShape {
  std::uint32_t targets = 0;
  std::uint64_t sources = 0;
};

struct GpuKernelTiming {
  double seconds = 0.0;            // virtual kernel time (cudaEvent analog)
  std::uint64_t blocks = 0;
  std::uint64_t interactions = 0;  // useful body-pair interactions
  double busy_lane_fraction = 0.0; // useful / paid thread-work
};

// Cycles one block of `lanes` threads spends processing `sources` source
// bodies with `flops_per_interaction` each (every lane pays, active or
// not). Blocks are warp-granular: a target node with 10 bodies launches one
// 32-lane block, not a 256-lane one -- idle-lane waste is bounded by one
// warp per block, while the lock-step march over sources is still paid in
// full by every lane.
double block_cycles(const GpuDeviceConfig& dev, int lanes,
                    std::uint64_t sources, double flops_per_interaction);

// Virtual kernel time for a set of work shapes on one device: expands each
// shape into blocks, list-schedules the blocks onto the SMs in submission
// order, and returns the makespan plus occupancy statistics.
GpuKernelTiming simulate_kernel(const GpuDeviceConfig& dev,
                                const std::vector<GpuWorkShape>& shapes,
                                double flops_per_interaction);

}  // namespace afmm
