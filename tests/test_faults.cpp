// Fault-injection framework: injector determinism, health registry effects,
// transfer retry model, and capability-weighted partitioning.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "faults/fault_injector.hpp"
#include "gpusim/p2p_executor.hpp"
#include "gpusim/partition.hpp"
#include "gpusim/transfer.hpp"
#include "machine/health.hpp"
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

// ------------------------------------------------------------- injector ----

TEST(FaultInjector, EventsFireAtTheirStepInOrder) {
  FaultSchedule sched;
  sched.gpu_throttle(5, 1, 0.5).gpu_loss(3, 0).gpu_recovery(8, 0);
  FaultInjector inj(sched, 42);

  MachineHealth health;
  health.reset(2, 8);

  EXPECT_TRUE(inj.advance_to(0, health).empty());
  EXPECT_TRUE(health.gpus[0].alive);

  const auto at3 = inj.advance_to(3, health);
  ASSERT_EQ(at3.size(), 1u);
  EXPECT_EQ(at3[0].kind, FaultKind::kGpuLoss);
  EXPECT_FALSE(health.gpus[0].alive);
  EXPECT_TRUE(health.gpus[1].alive);

  const auto at5 = inj.advance_to(5, health);
  ASSERT_EQ(at5.size(), 1u);
  EXPECT_EQ(at5[0].kind, FaultKind::kGpuThrottle);
  EXPECT_DOUBLE_EQ(health.gpus[1].clock_scale, 0.5);
  EXPECT_FALSE(inj.exhausted());

  const auto at9 = inj.advance_to(9, health);  // step 8 was skipped over
  ASSERT_EQ(at9.size(), 1u);
  EXPECT_EQ(at9[0].kind, FaultKind::kGpuRecovery);
  EXPECT_TRUE(health.gpus[0].alive);
  EXPECT_DOUBLE_EQ(health.gpus[0].clock_scale, 1.0);
  EXPECT_TRUE(inj.exhausted());
}

TEST(FaultInjector, EpochIncrementsOnEveryAppliedEvent) {
  FaultSchedule sched;
  sched.gpu_loss(1, 0).gpu_throttle(1, 1, 0.7).cpu_preemption(2, 4);
  FaultInjector inj(sched);
  MachineHealth health;
  health.reset(2, 8);

  const std::uint64_t base = health.fault_epoch;
  inj.advance_to(1, health);
  EXPECT_EQ(health.fault_epoch, base + 2);
  inj.advance_to(2, health);
  EXPECT_EQ(health.fault_epoch, base + 3);
  // No further events: the epoch freezes even as steps keep advancing.
  inj.advance_to(10, health);
  EXPECT_EQ(health.fault_epoch, base + 3);
}

TEST(FaultInjector, EpochIsMonotonicAcrossHealthReset) {
  // Regression: reset() used to zero fault_epoch, so after a
  // checkpoint-restore-then-reset sequence the epoch re-walked values it had
  // already produced. An observer holding "last epoch seen" compared equal
  // against a genuinely different machine state and missed the shift.
  FaultSchedule sched;
  sched.gpu_loss(1, 0);
  MachineHealth health;
  health.reset(2, 8);
  {
    FaultInjector inj(sched);
    inj.advance_to(1, health);
  }
  const std::uint64_t seen = health.fault_epoch;  // observer's stored epoch

  // Re-provision (the restore-then-reset path) and replay the same schedule.
  health.reset(2, 8);
  EXPECT_GT(health.fault_epoch, seen)
      << "reset() must advance the epoch, not rewind it";
  FaultInjector inj(sched);
  inj.advance_to(1, health);
  // The GPU is dead again -- a real shift -- and the epoch must NOT collide
  // with the value the observer already saw.
  EXPECT_FALSE(health.gpus[0].alive);
  EXPECT_GT(health.fault_epoch, seen);
}

TEST(FaultInjector, PreemptionAndRestore) {
  FaultSchedule sched;
  sched.cpu_preemption(1, 6).cpu_preemption(2, 100).cpu_restore(3);
  FaultInjector inj(sched);
  MachineHealth health;
  health.reset(1, 8);

  inj.advance_to(1, health);
  EXPECT_EQ(health.cpu_cores_available, 2);
  inj.advance_to(2, health);  // over-preemption still leaves one core
  EXPECT_EQ(health.cpu_cores_available, 1);
  inj.advance_to(3, health);
  EXPECT_EQ(health.cpu_cores_available, 8);
}

TEST(FaultInjector, TransferWindowOpensAndExpires) {
  FaultSchedule sched;
  sched.transfer_faults(2, 0.25, 3);  // active steps 2, 3, 4
  FaultInjector inj(sched, 7);
  MachineHealth health;
  health.reset(1, 4);

  inj.advance_to(1, health);
  EXPECT_DOUBLE_EQ(health.transfer_fault_prob, 0.0);
  inj.advance_to(2, health);
  EXPECT_DOUBLE_EQ(health.transfer_fault_prob, 0.25);
  inj.advance_to(4, health);
  EXPECT_DOUBLE_EQ(health.transfer_fault_prob, 0.25);
  inj.advance_to(5, health);
  EXPECT_DOUBLE_EQ(health.transfer_fault_prob, 0.0);
}

TEST(FaultInjector, SameScheduleAndSeedReplayIdentically) {
  FaultSchedule sched;
  sched.gpu_loss(2, 0).transfer_faults(4, 0.5, 2).gpu_recovery(7, 0);

  auto run = [&](std::uint64_t seed) {
    FaultInjector inj(sched, seed);
    MachineHealth h;
    h.reset(2, 8);
    std::vector<std::uint64_t> seeds;
    for (int s = 0; s < 10; ++s) {
      inj.advance_to(s, h);
      seeds.push_back(h.transfer_seed);
    }
    return std::make_pair(seeds, h.fault_epoch);
  };

  const auto a = run(123);
  const auto b = run(123);
  const auto c = run(456);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_NE(a.first, c.first);  // different seed, different retry draws
}

TEST(FaultInjector, AdvanceToRejectsOutOfOrderSteps) {
  // The replay guarantees (cursor + fired-mark) assume steps arrive in
  // nondecreasing order; a backwards call is a caller bug that must be loud,
  // not a silent re-fire.
  FaultSchedule sched;
  sched.gpu_loss(2, 0);
  FaultInjector inj(sched, 42);
  MachineHealth h;
  h.reset(2, 8);

  inj.advance_to(3, h);
  inj.advance_to(3, h);  // same step again is fine (idempotent re-poll)
  inj.advance_to(5, h);
  EXPECT_THROW(inj.advance_to(4, h), std::logic_error);

  // restore() re-arms the guard: a checkpoint rollback legitimately rewinds.
  const FaultInjectorSnapshot snap = inj.snapshot();
  inj.restore(snap);
  inj.advance_to(0, h);  // no throw
}

// ------------------------------------------------------- transfer retry ----

TEST(TransferRetry, NoFaultsMatchesPlainTransfer) {
  TransferLinkConfig link;
  TransferFaultModel none;
  int retries = 0;
  const std::uint64_t bytes = 1 << 20;
  EXPECT_DOUBLE_EQ(transfer_seconds_with_retries(link, bytes, none, 1, &retries),
                   transfer_seconds(link, bytes));
  EXPECT_EQ(retries, 0);
}

TEST(TransferRetry, DeterministicPerSeedAndKey) {
  TransferLinkConfig link;
  TransferFaultModel faults{0.6, 99};
  const std::uint64_t bytes = 1 << 18;
  int r1 = 0, r2 = 0;
  const double t1 = transfer_seconds_with_retries(link, bytes, faults, 5, &r1);
  const double t2 = transfer_seconds_with_retries(link, bytes, faults, 5, &r2);
  EXPECT_DOUBLE_EQ(t1, t2);
  EXPECT_EQ(r1, r2);
}

TEST(TransferRetry, CertainFailureIsBoundedByMaxRetries) {
  TransferLinkConfig link;
  link.max_retries = 3;
  TransferFaultModel faults{1.0, 1};  // every attempt fails
  int retries = 0;
  const std::uint64_t bytes = 1 << 18;
  const double t =
      transfer_seconds_with_retries(link, bytes, faults, 0, &retries);
  // Exactly max_retries failed attempts, then the forced success.
  EXPECT_EQ(retries, 3);
  const double plain = transfer_seconds(link, bytes);
  // 4 attempts paid in full plus 3 growing backoffs.
  double backoff = 0.0;
  double b = link.backoff_base_us * 1e-6;
  for (int i = 0; i < 3; ++i) {
    backoff += b;
    b *= link.backoff_multiplier;
  }
  EXPECT_NEAR(t, 4.0 * plain + backoff, 1e-12);
}

TEST(TransferRetry, RetryTimeIsChargedIntoTheTimeline) {
  TransferLinkConfig link;
  std::vector<GpuTransferShape> shapes{{1 << 20, 1 << 18, 1e-3}};
  const StepTimeline healthy = plan_step(link, shapes);
  EXPECT_EQ(healthy.retries, 0);
  EXPECT_DOUBLE_EQ(healthy.retry_seconds, 0.0);

  TransferFaultModel faults{1.0, 3};
  const StepTimeline faulty = plan_step(link, shapes, faults);
  EXPECT_GT(faulty.retries, 0);
  EXPECT_GT(faulty.retry_seconds, 0.0);
  EXPECT_GT(faulty.step_seconds(0.0), healthy.step_seconds(0.0));
}

// ------------------------------------------------- weighted partitioning ----

std::vector<P2PWork> synthetic_work(int n, std::uint64_t base) {
  std::vector<P2PWork> work(n);
  for (int i = 0; i < n; ++i)
    work[i] = {i, {}, base + static_cast<std::uint64_t>(i % 7)};
  return work;
}

TEST(WeightedPartition, EqualWeightsMatchUnweighted) {
  const auto work = synthetic_work(40, 16);
  const std::vector<double> w{1.0, 1.0, 1.0};
  for (auto scheme :
       {PartitionScheme::kInteractionWalk, PartitionScheme::kNodeCount,
        PartitionScheme::kLptInteractions}) {
    EXPECT_EQ(partition_p2p_work(work, 3, scheme),
              partition_p2p_work(work, w, scheme));
  }
}

TEST(WeightedPartition, ZeroWeightGpuGetsNothingAndWorkIsCoveredOnce) {
  const auto work = synthetic_work(30, 8);
  const std::vector<double> w{1.0, 0.0, 2.0};
  for (auto scheme :
       {PartitionScheme::kInteractionWalk, PartitionScheme::kNodeCount,
        PartitionScheme::kLptInteractions}) {
    const auto parts = partition_p2p_work(work, w, scheme);
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_TRUE(parts[1].empty());
    std::vector<int> seen;
    for (const auto& p : parts) seen.insert(seen.end(), p.begin(), p.end());
    std::sort(seen.begin(), seen.end());
    std::vector<int> all(work.size());
    std::iota(all.begin(), all.end(), 0);
    EXPECT_EQ(seen, all);
  }
}

TEST(WeightedPartition, ThrottledGpuGetsProportionallySmallerShare) {
  const auto work = synthetic_work(400, 64);
  const std::vector<double> w{1.0, 0.25};  // GPU 1 throttled to quarter clock
  const auto parts = partition_p2p_work(work, w);
  ASSERT_EQ(parts.size(), 2u);
  auto interactions = [&](const std::vector<int>& p) {
    std::uint64_t sum = 0;
    for (int i : p) sum += work[i].interactions;
    return sum;
  };
  const double i0 = static_cast<double>(interactions(parts[0]));
  const double i1 = static_cast<double>(interactions(parts[1]));
  EXPECT_NEAR(i0 / (i0 + i1), 0.8, 0.05);
  // And the weighted imbalance metric sees this as balanced.
  EXPECT_LT(partition_imbalance(work, parts, w), 1.1);
}

// -------------------------------------------------- health-aware timing ----

TEST(DeviceWeights, HealthScalesAndKillsDevices) {
  const auto system = GpuSystemConfig::uniform(3);
  const auto nominal = device_weights(system);
  ASSERT_EQ(nominal.size(), 3u);
  EXPECT_GT(nominal[0], 0.0);

  MachineHealth health;
  health.reset(3, 8);
  health.gpus[0].alive = false;
  health.gpus[1].clock_scale = 0.5;
  const auto degraded = device_weights(system, &health);
  EXPECT_DOUBLE_EQ(degraded[0], 0.0);
  EXPECT_DOUBLE_EQ(degraded[1], 0.5 * nominal[1]);
  EXPECT_DOUBLE_EQ(degraded[2], nominal[2]);
}

TEST(HealthAwareTiming, DeadGpuShiftsWorkAndThrottleSlowsKernels) {
  Rng rng(11);
  const auto pts = random_points(rng, 4000);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(48));
  const auto lists = build_interaction_lists(tree);
  const auto system = GpuSystemConfig::uniform(2);

  const auto healthy = simulate_p2p_timing(tree, lists.p2p, 20.0, system);
  EXPECT_FALSE(healthy.cpu_fallback);

  MachineHealth health;
  health.reset(2, 8);
  health.gpus[1].alive = false;
  const auto one_dead =
      simulate_p2p_timing(tree, lists.p2p, 20.0, system, &health);
  EXPECT_FALSE(one_dead.cpu_fallback);
  // All work on one GPU: roughly twice the kernel time, and the dead device
  // reports an idle kernel.
  EXPECT_GT(one_dead.max_kernel_seconds, 1.5 * healthy.max_kernel_seconds);
  ASSERT_EQ(one_dead.per_gpu.size(), 2u);
  EXPECT_DOUBLE_EQ(one_dead.per_gpu[1].seconds, 0.0);

  health.reset(2, 8);
  health.gpus[0].clock_scale = 0.5;
  health.gpus[1].clock_scale = 0.5;
  const auto throttled =
      simulate_p2p_timing(tree, lists.p2p, 20.0, system, &health);
  // Both clocks halved: the whole phase takes about twice as long.
  EXPECT_NEAR(throttled.max_kernel_seconds / healthy.max_kernel_seconds, 2.0,
              0.3);
}

TEST(HealthAwareTiming, AllGpusLostFallsBackToCpu) {
  Rng rng(12);
  const auto pts = random_points(rng, 1000);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(32));
  const auto lists = build_interaction_lists(tree);
  const auto system = GpuSystemConfig::uniform(2);

  MachineHealth health;
  health.reset(2, 8);
  health.gpus[0].alive = false;
  health.gpus[1].alive = false;
  const auto res = simulate_p2p_timing(tree, lists.p2p, 20.0, system, &health);
  EXPECT_TRUE(res.cpu_fallback);
  EXPECT_DOUBLE_EQ(res.max_kernel_seconds, 0.0);
  EXPECT_EQ(res.total_interactions, lists.total_p2p_interactions);
}

}  // namespace
}  // namespace afmm
