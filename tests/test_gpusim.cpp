#include <gtest/gtest.h>
#include <omp.h>

#include <cstring>
#include <numeric>
#include <utility>

#include "gpusim/gpu_model.hpp"
#include "gpusim/p2p_executor.hpp"
#include "gpusim/partition.hpp"
#include "kernels/gravity.hpp"
#include "kernels/stokeslet.hpp"
#include "octree/octree.hpp"
#include "octree/traversal.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

std::vector<Vec3> random_points(Rng& rng, int n) {
  std::vector<Vec3> pts;
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  return pts;
}

TreeConfig unit_config(int S) {
  TreeConfig tc;
  tc.leaf_capacity = S;
  tc.root_center = {0.5, 0.5, 0.5};
  tc.root_half = 0.5;
  return tc;
}

// ---------------------------------------------------------- cycle model ----

TEST(GpuModel, BlockCyclesMonotonicInSources) {
  GpuDeviceConfig dev;
  double prev = 0.0;
  for (std::uint64_t s : {1u, 10u, 100u, 1000u, 10000u}) {
    const double c = block_cycles(dev, 256, s, 20.0);
    EXPECT_GT(c, prev);
    prev = c;
  }
}

TEST(GpuModel, BlockCyclesLinearAsymptotically) {
  GpuDeviceConfig dev;
  const double c1 = block_cycles(dev, 256, 1 << 16, 20.0);
  const double c2 = block_cycles(dev, 256, 1 << 17, 20.0);
  EXPECT_NEAR(c2 / c1, 2.0, 0.05);
}

TEST(GpuModel, BlockCyclesScaleWithLanes) {
  GpuDeviceConfig dev;
  dev.cycles_per_block = 0.0;
  dev.cycles_per_tile_load = 0.0;
  EXPECT_NEAR(block_cycles(dev, 256, 10000, 20.0),
              8.0 * block_cycles(dev, 32, 10000, 20.0), 1e-6);
}

TEST(GpuModel, RaggedBlockPaysWarpGranularLanes) {
  // A work item with 1 target still pays a whole 32-lane warp marching over
  // all 10k sources -- the small-target inefficiency of Section III.C --
  // but not the full 256-lane block.
  GpuDeviceConfig dev;
  const std::vector<GpuWorkShape> tiny{{1, 10000}};
  const std::vector<GpuWorkShape> full{{256, 10000}};
  const auto t_tiny = simulate_kernel(dev, tiny, 20.0);
  const auto t_full = simulate_kernel(dev, full, 20.0);
  EXPECT_LT(t_tiny.seconds, t_full.seconds);
  EXPECT_GT(t_tiny.seconds, 0.09 * t_full.seconds);  // ~32/256 of the cost
  EXPECT_NEAR(t_tiny.busy_lane_fraction, 1.0 / 32.0, 1e-9);
  EXPECT_NEAR(t_full.busy_lane_fraction, 1.0, 1e-9);
}

TEST(GpuModel, ManyBlocksFillSms) {
  GpuDeviceConfig dev;
  dev.num_sms = 4;
  // 1 block vs 4 equal blocks on 4 SMs: same makespan; 5 blocks: ~2x.
  const auto one = simulate_kernel(dev, {{256, 5000}}, 20.0);
  const auto four = simulate_kernel(dev, {{4 * 256, 5000}}, 20.0);
  const auto five = simulate_kernel(dev, {{5 * 256, 5000}}, 20.0);
  EXPECT_NEAR(four.seconds, one.seconds, 1e-12);
  EXPECT_GT(five.seconds, 1.8 * one.seconds - dev.launch_overhead_us * 1e-6);
}

TEST(GpuModel, EmptyWorkCostsOnlyLaunch) {
  GpuDeviceConfig dev;
  const auto t = simulate_kernel(dev, {}, 20.0);
  EXPECT_NEAR(t.seconds, dev.launch_overhead_us * 1e-6, 1e-12);
  EXPECT_EQ(t.blocks, 0u);
}

// ---------------------------------------------------------- partitioning ----

std::vector<P2PWork> synthetic_work(Rng& rng, int n) {
  std::vector<P2PWork> work(n);
  for (int i = 0; i < n; ++i) {
    work[i].target = i;
    work[i].interactions = 1000 + rng.below(100000);
  }
  return work;
}

class PartitionSchemes : public ::testing::TestWithParam<PartitionScheme> {};

TEST_P(PartitionSchemes, EveryItemAssignedOnce) {
  Rng rng(3);
  const auto work = synthetic_work(rng, 200);
  for (int g : {1, 2, 3, 4, 7}) {
    const auto parts = partition_p2p_work(work, g, GetParam());
    ASSERT_EQ(static_cast<int>(parts.size()), g);
    std::vector<int> seen(work.size(), 0);
    for (const auto& gpu : parts)
      for (int i : gpu) ++seen[i];
    for (int s : seen) EXPECT_EQ(s, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, PartitionSchemes,
                         ::testing::Values(PartitionScheme::kInteractionWalk,
                                           PartitionScheme::kNodeCount,
                                           PartitionScheme::kLptInteractions));

TEST(Partition, InteractionWalkBalancesWell) {
  Rng rng(4);
  const auto work = synthetic_work(rng, 500);
  const auto parts = partition_p2p_work(work, 4);
  // The paper's walk cuts as soon as the share is met; each GPU's overshoot
  // is at most one work item, so imbalance stays modest.
  EXPECT_LT(partition_imbalance(work, parts), 1.25);
}

TEST(Partition, InteractionWalkCarriesOvershootAcrossCuts) {
  // One huge item straddles the first share boundary. Its overshoot must be
  // charged against the NEXT GPU's share; resetting the running count to
  // zero instead hands GPU 1 a full fresh share and starves the last GPU of
  // the accumulated difference.
  std::vector<P2PWork> work;
  work.push_back({0, {0}, 100});  // huge: blows well past share = 200/3
  for (int i = 1; i <= 10; ++i)
    work.push_back({i, {i}, 10});
  const auto parts = partition_p2p_work(work, 3);

  // Carry semantics: GPU 0 takes the huge item (100) with overshoot 33.3;
  // GPU 1's count starts from the overshoot and cuts after 4 items (40);
  // GPU 2 gets the remaining 6 items (60). The zero-reset bug gave GPU 1
  // seven items (70) and GPU 2 three (30) -- twice as far from the ideal
  // 50/50 split of the tail.
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size(), 1u);
  EXPECT_EQ(parts[1].size(), 4u);
  EXPECT_EQ(parts[2].size(), 6u);

  std::uint64_t tail1 = 0;
  std::uint64_t tail2 = 0;
  for (int i : parts[1]) tail1 += work[i].interactions;
  for (int i : parts[2]) tail2 += work[i].interactions;
  EXPECT_LE(std::max(tail1, tail2) - std::min(tail1, tail2), 20u);
}

TEST(Partition, LptBeatsNodeCountOnSkewedWork) {
  std::vector<P2PWork> work(40);
  for (int i = 0; i < 40; ++i) {
    work[i].target = i;
    work[i].interactions = (i < 4) ? 1000000 : 1000;  // four huge items
  }
  const auto naive = partition_p2p_work(work, 4, PartitionScheme::kNodeCount);
  const auto lpt =
      partition_p2p_work(work, 4, PartitionScheme::kLptInteractions);
  EXPECT_LT(partition_imbalance(work, lpt), partition_imbalance(work, naive));
}

TEST(Partition, SingleGpuGetsEverything) {
  Rng rng(5);
  const auto work = synthetic_work(rng, 50);
  const auto parts = partition_p2p_work(work, 1);
  EXPECT_EQ(parts[0].size(), work.size());
  EXPECT_DOUBLE_EQ(partition_imbalance(work, parts), 1.0);
}

// Degenerate-input contract: num_gpus <= 0 yields an empty outer vector
// (no devices to assign to); empty work yields num_gpus empty per-GPU lists.
// Callers treat the empty outer vector as "fall back to the CPU".
TEST(Partition, ZeroGpusReturnsEmptyOuterVector) {
  EXPECT_TRUE(partition_p2p_work({}, 0).empty());
  EXPECT_TRUE(partition_p2p_work({}, -3).empty());
  std::vector<P2PWork> work(4);
  for (int i = 0; i < 4; ++i) work[i] = {i, {}, 8};
  EXPECT_TRUE(partition_p2p_work(work, 0).empty());
}

TEST(Partition, EmptyWorkReturnsPerGpuEmptyLists) {
  for (auto scheme :
       {PartitionScheme::kInteractionWalk, PartitionScheme::kNodeCount,
        PartitionScheme::kLptInteractions}) {
    const auto parts = partition_p2p_work({}, 3, scheme);
    ASSERT_EQ(parts.size(), 3u);
    for (const auto& p : parts) EXPECT_TRUE(p.empty());
  }
}

TEST(Partition, AllZeroWeightsReturnsAllEmpty) {
  std::vector<P2PWork> work(4);
  for (int i = 0; i < 4; ++i) work[i] = {i, {}, 8};
  const std::vector<double> weights{0.0, 0.0};
  const auto parts = partition_p2p_work(work, weights);
  ASSERT_EQ(parts.size(), 2u);
  for (const auto& p : parts) EXPECT_TRUE(p.empty());
}

// -------------------------------------------------------------- executor ----

TEST(P2PExecutor, ForcesMatchDirectReference) {
  Rng rng(6);
  const int n = 400;
  const auto pts = random_points(rng, n);
  std::vector<double> q(n);
  for (auto& v : q) v = rng.uniform(0.1, 2.0);

  AdaptiveOctree tree;
  tree.build(pts, unit_config(20));
  const auto lists = build_interaction_lists(tree);

  const auto pos = tree.sorted_positions();
  const auto perm = tree.perm();
  std::vector<GravitySource> sources(n);
  for (int t = 0; t < n; ++t) sources[t] = {pos[t], q[perm[t]]};
  std::vector<GravityAccum> out(n);

  GravityKernel kernel;
  for (int gpus : {1, 2, 4}) {
    std::fill(out.begin(), out.end(), GravityAccum{});
    const auto res = run_p2p(tree, lists.p2p, kernel,
                             std::span<const GravitySource>(sources), perm,
                             GpuSystemConfig::uniform(gpus),
                             std::span<GravityAccum>(out));
    EXPECT_EQ(res.total_interactions, lists.total_p2p_interactions);

    // Reference: direct accumulation per target over its source nodes.
    for (const auto& w : lists.p2p) {
      const auto& tn = tree.node(w.target);
      for (std::uint32_t bt = tn.begin; bt < tn.begin + tn.count; ++bt) {
        GravityAccum ref;
        for (int s : w.sources) {
          const auto& sn = tree.node(s);
          for (std::uint32_t bs = sn.begin; bs < sn.begin + sn.count; ++bs)
            kernel.accumulate(pos[bt], perm[bt], sources[bs], perm[bs], ref);
        }
        EXPECT_NEAR(out[bt].pot, ref.pot, 1e-12 * std::abs(ref.pot))
            << "gpus=" << gpus;
      }
    }
  }

  // An empty work list adds nothing and leaves `out` as it was.
  const std::vector<GravityAccum> before = out;
  const auto res = run_p2p(tree, std::vector<P2PWork>{}, kernel,
                           std::span<const GravitySource>(sources), perm,
                           GpuSystemConfig::uniform(2),
                           std::span<GravityAccum>(out));
  EXPECT_EQ(res.total_interactions, 0u);
  EXPECT_EQ(std::memcmp(before.data(), out.data(), n * sizeof(GravityAccum)),
            0);
}

// Runs the near field of `kernel` over `sources` on each system (health
// registry optional) and expects bitwise-identical accumulators.
template <typename Kernel>
void expect_same_near_field(
    const AdaptiveOctree& tree, const std::vector<P2PWork>& work,
    const Kernel& kernel,
    const std::vector<typename Kernel::Source>& sources,
    const std::vector<std::pair<GpuSystemConfig, const MachineHealth*>>&
        systems) {
  using Accum = typename Kernel::Accum;
  const std::size_t n = sources.size();
  std::vector<Accum> first(n);
  for (std::size_t k = 0; k < systems.size(); ++k) {
    std::vector<Accum> out(n);
    run_p2p(tree, work, kernel,
            std::span<const typename Kernel::Source>(sources), tree.perm(),
            systems[k].first, std::span<Accum>(out), systems[k].second);
    if (k == 0) {
      first = out;
      continue;
    }
    EXPECT_EQ(std::memcmp(first.data(), out.data(), n * sizeof(Accum)), 0)
        << "system " << k;
  }
}

TEST(P2PExecutor, ResultIndependentOfGpuCount) {
  Rng rng(7);
  const int n = 600;
  const auto pts = random_points(rng, n);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(25));
  const auto lists = build_interaction_lists(tree);
  const auto pos = tree.sorted_positions();

  // Every device dead: the near field is flagged cpu_fallback and charged
  // to the CPU, with the same forces.
  MachineHealth all_dead;
  all_dead.reset(3, 4);
  for (auto& g : all_dead.gpus) g.alive = false;
  const std::vector<std::pair<GpuSystemConfig, const MachineHealth*>> systems{
      {GpuSystemConfig::uniform(1), nullptr},
      {GpuSystemConfig::uniform(4), nullptr},
      {GpuSystemConfig::uniform(3), &all_dead}};

  // The forces do not depend on the device assignment: per-target source
  // order -- and hence every bit -- is fixed by the work item alone.
  std::vector<GravitySource> masses(n);
  for (int t = 0; t < n; ++t) masses[t] = {pos[t], 1.0};
  expect_same_near_field(tree, lists.p2p, GravityKernel{}, masses, systems);

  std::vector<StokesletSource> forces(n);
  for (int t = 0; t < n; ++t)
    forces[t] = {pos[t], {rng.uniform(-1, 1), rng.uniform(-1, 1),
                          rng.uniform(-1, 1)}};
  expect_same_near_field(tree, lists.p2p, StokesletKernel(1e-3), forces,
                         systems);
  EXPECT_TRUE(simulate_p2p_timing(tree, lists.p2p, 20.0,
                                  GpuSystemConfig::uniform(3), &all_dead)
                  .cpu_fallback);
}

// Runs the near field of `kernel` under 1, 2 and 4 OpenMP threads, plain
// and with every P2P SDC hook armed (checksums, a verify sample every third
// work item, one injected batch corruption), and expects the same bits from
// every run and a 1/1/1/0 SDC report at every thread count.
template <typename Kernel>
void expect_thread_count_independent(
    const AdaptiveOctree& tree, const std::vector<P2PWork>& work,
    const Kernel& kernel,
    const std::vector<typename Kernel::Source>& sources) {
  using Accum = typename Kernel::Accum;
  const std::size_t n = sources.size();
  SdcDetectConfig detect;
  detect.p2p_checks = true;
  detect.p2p_verify_stride = 3;

  std::vector<Accum> first;
  for (int threads : {1, 2, 4}) {
    omp_set_num_threads(threads);
    for (bool armed : {false, true}) {
      SdcReport report;
      const SdcHooks hooks{&detect, true, 0x5dc, &report};
      std::vector<Accum> out(n);
      run_p2p(tree, work, kernel,
              std::span<const typename Kernel::Source>(sources), tree.perm(),
              GpuSystemConfig::uniform(2), std::span<Accum>(out), nullptr,
              armed ? &hooks : nullptr);
      if (armed) {
        EXPECT_EQ(report.injected, 1) << "threads=" << threads;
        EXPECT_EQ(report.detected, 1) << "threads=" << threads;
        EXPECT_EQ(report.repaired, 1) << "threads=" << threads;
        EXPECT_EQ(report.unrepaired, 0) << "threads=" << threads;
      }
      if (first.empty()) {
        first = out;
        continue;
      }
      EXPECT_EQ(std::memcmp(first.data(), out.data(), n * sizeof(Accum)), 0)
          << "threads=" << threads << " armed=" << armed;
    }
  }
}

TEST(P2PExecutor, ResultIndependentOfThreadCount) {
  // Restores the caller's thread count even when an assertion fails.
  struct ThreadCountGuard {
    int saved = omp_get_max_threads();
    ~ThreadCountGuard() { omp_set_num_threads(saved); }
  } guard;

  Rng rng(10);
  const int n = 1500;
  const auto pts = random_points(rng, n);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(40));
  const auto lists = build_interaction_lists(tree);
  const auto pos = tree.sorted_positions();

  std::vector<GravitySource> masses(n);
  for (int t = 0; t < n; ++t) masses[t] = {pos[t], rng.uniform(0.1, 2.0)};
  expect_thread_count_independent(tree, lists.p2p, GravityKernel(1e-3),
                                  masses);

  std::vector<StokesletSource> forces(n);
  for (int t = 0; t < n; ++t)
    forces[t] = {pos[t], {rng.uniform(-1, 1), rng.uniform(-1, 1),
                          rng.uniform(-1, 1)}};
  expect_thread_count_independent(tree, lists.p2p, StokesletKernel(1e-3),
                                  forces);
}

TEST(P2PExecutor, MoreGpusReduceKernelTime) {
  Rng rng(8);
  const int n = 5000;
  const auto pts = random_points(rng, n);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(64));
  const auto lists = build_interaction_lists(tree);
  const auto pos = tree.sorted_positions();
  const auto perm = tree.perm();
  std::vector<GravitySource> sources(n);
  for (int t = 0; t < n; ++t) sources[t] = {pos[t], 1.0};

  GravityKernel kernel;
  double prev = 1e30;
  for (int g : {1, 2, 4}) {
    std::vector<GravityAccum> out(n);
    const auto res = run_p2p(tree, lists.p2p, kernel,
                             std::span<const GravitySource>(sources), perm,
                             GpuSystemConfig::uniform(g),
                             std::span<GravityAccum>(out));
    EXPECT_LT(res.max_kernel_seconds, prev) << "gpus=" << g;
    prev = res.max_kernel_seconds;
  }
}

TEST(P2PExecutor, CollectShapesSumsSources) {
  Rng rng(9);
  const auto pts = random_points(rng, 500);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(30));
  const auto lists = build_interaction_lists(tree);
  std::vector<int> all(lists.p2p.size());
  std::iota(all.begin(), all.end(), 0);
  const auto shapes = collect_shapes(tree, lists.p2p, all);
  ASSERT_EQ(shapes.size(), lists.p2p.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    EXPECT_EQ(shapes[i].targets, tree.node(lists.p2p[i].target).count);
    total += static_cast<std::uint64_t>(shapes[i].targets) * shapes[i].sources;
  }
  EXPECT_EQ(total, lists.total_p2p_interactions);
}

}  // namespace
}  // namespace afmm
