// Executes the near-field (P2P) phase on the simulated multi-GPU system.
//
// Numerics: run_p2p is the one near-field executor. Its work items (one per
// target node) run across the OpenMP threads, handed out one at a time,
// largest `interactions` first. Inside an item every target body accumulates
// its sources in concatenated source-list order, exactly as the paper's CUDA
// kernel does (the lock-step tile march visits sources in that order for
// every lane). Target spans never overlap, so every body receives exactly one
// `+=`, from the one thread that ran its item. The forces are therefore
// bit-identical for any thread count and any run order, and do not depend on
// which device a work item is assigned to or on how many devices survive.
// The SDC victim batch and the verify sample are keyed by the work index,
// not by the run order, so fault replay is thread-count independent too.
//
// Timing: simulate_p2p_timing partitions the work across the devices,
// expands each device's share into block shapes and passes them to
// simulate_kernel(); the reported GPU Time is the maximum kernel time over
// all devices, matching the paper's cudaEvent-based definition (Section
// VII.A).
//
// Degradation (health registry): when a MachineHealth is supplied, dead
// devices receive no work, throttled devices run at their scaled clock and
// receive a proportionally smaller interaction share, and transient link
// faults charge retry time into the step timeline. With every GPU dead the
// result is flagged cpu_fallback and the machine model charges the near
// field to the CPU (the Fig. 7 baseline path); the forces are unchanged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/gpu_model.hpp"
#include "gpusim/partition.hpp"
#include "gpusim/transfer.hpp"
#include "machine/health.hpp"
#include "octree/octree.hpp"
#include "octree/traversal.hpp"
#include "sdc/sdc.hpp"

namespace afmm {

struct GpuSystemConfig {
  std::vector<GpuDeviceConfig> devices{GpuDeviceConfig{}};
  PartitionScheme partition = PartitionScheme::kInteractionWalk;
  TransferLinkConfig link;  // per-GPU PCIe-like link (Section III.D)

  static GpuSystemConfig uniform(int num_gpus,
                                 const GpuDeviceConfig& dev = {}) {
    if (num_gpus < 0)
      throw std::invalid_argument(
          "GpuSystemConfig::uniform: num_gpus must be >= 0, got " +
          std::to_string(num_gpus));
    GpuSystemConfig cfg;
    cfg.devices.assign(static_cast<std::size_t>(num_gpus), dev);
    return cfg;
  }
};

// Current relative capability of each configured device: nominal throughput
// (SMs x clock x flops/cycle) scaled by health (0 for dead devices). With no
// health registry every device is at its nominal weight.
std::vector<double> device_weights(const GpuSystemConfig& system,
                                   const MachineHealth* health = nullptr);

// Device config as currently clocked (throttle applied); identity when
// healthy.
GpuDeviceConfig effective_device(const GpuDeviceConfig& dev,
                                 const MachineHealth* health, std::size_t g);

struct GpuRunResult {
  std::vector<GpuKernelTiming> per_gpu;
  double max_kernel_seconds = 0.0;  // the paper's "GPU Time"
  std::uint64_t total_interactions = 0;
  double imbalance = 1.0;
  // All GPUs lost: the near field ran on the CPU; max_kernel_seconds is 0
  // and NodeSimulator::charge_near_field charges total_interactions through
  // the CPU cost model.
  bool cpu_fallback = false;
  // CPU-GPU communication timeline of the step (Section III.D): the
  // non-blocking launch, upload+kernel completion, and the blocking gather.
  StepTimeline timeline;
  // Per-DEVICE transfer shapes (one entry per configured device; dead or
  // workless devices keep a zero shape). Observability uses these to draw
  // per-GPU upload/kernel/download spans; the timeline above is still
  // planned from the alive devices only, so timing is unchanged.
  std::vector<GpuTransferShape> transfers;
};

// Timing-only evaluation of the P2P phase (no numerics): capability-weighted
// partition, per-device kernel simulation at current clocks, transfer
// timeline with retries. Exactly the timing path of run_p2p, shared with the
// machine model's observe helpers and the benches.
GpuRunResult simulate_p2p_timing(const AdaptiveOctree& tree,
                                 const std::vector<P2PWork>& work,
                                 double flops_per_interaction,
                                 const GpuSystemConfig& system,
                                 const MachineHealth* health = nullptr);

// Shapes of the work items assigned to one device.
std::vector<GpuWorkShape> collect_shapes(const AdaptiveOctree& tree,
                                         const std::vector<P2PWork>& work,
                                         const std::vector<int>& assigned);

// Runs all P2P work. `sources` and `ids` are tree-ordered (node spans index
// into them); `out` accumulates per tree-ordered body.
//
// ABFT (sdc/): each work item -- one "batch", the unit a device would hand
// back -- is computed into its thread's staging buffer, checksummed at
// production, and only flushed into `out` after verification. A corrupted
// batch (the simulated kSdcGpuBatch event flips a bit post-"transfer"; the
// victim is a work index) is detected by the checksum mismatch and
// SURGICALLY REPAIRED by re-executing just that batch on the CPU;
// `sdc->detect->p2p_verify_stride` additionally re-evaluates one target body
// of every Nth work item from scratch as an independent end-to-end sample.
// The staging buffer changes no arithmetic: per-target accumulation order
// and the `out[bt] += batch[j]` flush are the exact operations of the direct
// path, so results stay bit-identical with hooks on, off, or null. The
// `sdc->report` counters are bumped atomically.
template <typename Kernel>
GpuRunResult run_p2p(const AdaptiveOctree& tree,
                     const std::vector<P2PWork>& work, const Kernel& kernel,
                     std::span<const typename Kernel::Source> sources,
                     std::span<const std::uint32_t> ids,
                     const GpuSystemConfig& system,
                     std::span<typename Kernel::Accum> out,
                     const MachineHealth* health = nullptr,
                     const SdcHooks* sdc = nullptr) {
  using Accum = typename Kernel::Accum;
  const bool check_sums = sdc && sdc->detect && sdc->detect->p2p_checks;
  const int sample_stride =
      sdc && sdc->detect ? sdc->detect->p2p_verify_stride : 0;
  // Deterministic victim batch for the injected corruption (if armed).
  const std::int64_t inject_wi =
      sdc && sdc->inject && !work.empty()
          ? static_cast<std::int64_t>(sdc_pick(sdc->seed, work.size()))
          : -1;

  // The near-field kernel: one target body accumulates the sources of its
  // work item in concatenated source-list order.
  auto target_sum = [&](const P2PWork& w, std::uint32_t bt) {
    Accum acc{};
    const Vec3 xt = sources[bt].x;
    for (int s : w.sources) {
      const OctreeNode& sn = tree.node(s);
      for (std::uint32_t bs = sn.begin; bs < sn.begin + sn.count; ++bs)
        kernel.accumulate(xt, ids[bt], sources[bs], ids[bs], acc);
    }
    return acc;
  };

  // Largest first: with dynamic hand-out, the few big items (their sizes are
  // very uneven) start early instead of leaving one thread working alone at
  // the end. The order only decides when an item runs, never its arithmetic.
  std::vector<std::size_t> order(work.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return work[a].interactions > work[b].interactions;
                   });
  SdcReport* report = sdc ? sdc->report : nullptr;
  auto count = [](int& counter) {
#pragma omp atomic
    ++counter;
  };

#pragma omp parallel
  {
    // Per-thread staging buffer. Value-initializing it keeps any padding
    // bytes deterministic for raw-byte checksums.
    std::vector<Accum> batch;
    auto compute_batch = [&](const P2PWork& w, const OctreeNode& t) {
      batch.assign(t.count, Accum{});
      for (std::uint32_t j = 0; j < t.count; ++j)
        batch[j] = target_sum(w, t.begin + j);
    };
    // The sampled CPU re-evaluation: recompute the first target body from
    // scratch; true when it matches the staged result bitwise.
    auto sample_matches = [&](const P2PWork& w, const OctreeNode& t) {
      if (t.count == 0) return true;
      const Accum acc = target_sum(w, t.begin);
      return std::memcmp(&acc, batch.data(), sizeof(Accum)) == 0;
    };

#pragma omp for schedule(dynamic, 1)
    for (std::size_t k = 0; k < order.size(); ++k) {
      // The SDC victim and the verify sample are keyed by the work index,
      // not by the position in the run order.
      const std::size_t wi = order[k];
      const P2PWork& w = work[wi];
      const OctreeNode& t = tree.node(w.target);
      compute_batch(w, t);
      const std::size_t bytes = batch.size() * sizeof(Accum);
      // ABFT checksum at production time (before the batch "leaves the
      // device"); also the bit-exact ground truth a repair must reproduce.
      const std::uint64_t want =
          check_sums ? sdc_checksum_bytes(batch.data(), bytes) : 0;
      if (static_cast<std::int64_t>(wi) == inject_wi && !batch.empty()) {
        // The victim double is seed-picked across the whole batch:
        // corruption can land in any accumulator field of any target body.
        double* doubles = reinterpret_cast<double*>(batch.data());
        sdc_flip_double_bit(
            doubles[sdc_pick(sdc->seed >> 7, bytes / sizeof(double))],
            static_cast<int>(sdc->seed >> 17));
        if (report) count(report->injected);
      }
      bool bad = false;
      if (check_sums) bad = sdc_checksum_bytes(batch.data(), bytes) != want;
      if (!bad && sample_stride > 0 && wi % sample_stride == 0)
        bad = !sample_matches(w, t);
      if (bad) {
        if (report) count(report->detected);
        // Surgical repair: recompute just this batch, then prove the repair
        // bit-exact against the production-time checksum (or the sampled
        // re-evaluation when checksums are off).
        compute_batch(w, t);
        const bool fixed =
            check_sums ? sdc_checksum_bytes(batch.data(), bytes) == want
                       : sample_matches(w, t);
        if (report) count(fixed ? report->repaired : report->unrepaired);
      }
      // Target spans are disjoint, so this flush needs no lock.
      for (std::uint32_t j = 0; j < t.count; ++j) out[t.begin + j] += batch[j];
    }
  }

  return simulate_p2p_timing(tree, work, Kernel::flops_per_interaction(),
                             system, health);
}

}  // namespace afmm
