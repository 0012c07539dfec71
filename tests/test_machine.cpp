#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "machine/machine.hpp"
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

TEST(CpuModel, EffectiveRatePositiveAndBonusKicksIn) {
  CpuModelConfig cpu;
  cpu.cores_per_socket = 8;
  cpu.cache_bonus_per_extra_socket = 0.05;
  cpu.num_cores = 32;
  EXPECT_GT(cpu.effective_rate(1), 0.0);
  // 9 cores span two sockets: rate per core gets the shared-cache bonus.
  EXPECT_GT(cpu.effective_rate(9), cpu.effective_rate(8));
}

TEST(CpuModel, BandwidthShareSaturates) {
  CpuModelConfig cpu;
  cpu.bw_per_core_gbs = 8.0;
  cpu.bw_total_gbs = 60.0;
  EXPECT_DOUBLE_EQ(cpu.bandwidth_share(1), 8.0e9);
  EXPECT_DOUBLE_EQ(cpu.bandwidth_share(4), 8.0e9);
  EXPECT_DOUBLE_EQ(cpu.bandwidth_share(30), 2.0e9);
}

TEST(CpuModel, TaskSecondsScalesWithFlops) {
  CpuModelConfig cpu;
  EXPECT_NEAR(cpu.task_seconds(2e6, 1), 2.0 * cpu.task_seconds(1e6, 1), 1e-12);
  EXPECT_GT(cpu.task_seconds(1e6, 32), cpu.task_seconds(1e6, 1));
}

TEST(NodeSimulator, RejectsCoreCountBelowOne) {
  for (int cores : {0, -3}) {
    CpuModelConfig cpu;
    cpu.num_cores = cores;
    try {
      NodeSimulator node(cpu, GpuSystemConfig::uniform(1));
      ADD_FAILURE() << "num_cores=" << cores << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("CpuModelConfig::num_cores"),
                std::string::npos)
          << e.what();
    }
  }
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(1));
  EXPECT_THROW(node.set_cpu_cores(0), std::invalid_argument);
  EXPECT_EQ(node.cpu().num_cores, CpuModelConfig{}.num_cores);
  node.set_cpu_cores(1);
  EXPECT_EQ(node.cpu().num_cores, 1);
}

TEST(NodeSimulator, RejectsNegativeGpuCount) {
  try {
    GpuSystemConfig::uniform(-1);
    ADD_FAILURE() << "num_gpus=-1 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("num_gpus"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(GpuSystemConfig::uniform(0).devices.empty());
}

class MachineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    pts_ = random_points(rng, 4000);
    tree_.build(pts_, unit_config(32));
    lists_ = build_interaction_lists(tree_);
  }
  std::vector<Vec3> pts_;
  AdaptiveOctree tree_;
  InteractionLists lists_;
};

TEST_F(MachineFixture, FarFieldTimesArePositiveAndConsistent) {
  ExpansionContext ctx(4);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(1));
  const auto t = node.simulate_far_field(ctx, tree_, lists_);
  EXPECT_GT(t.cpu_seconds, 0.0);
  EXPECT_GT(t.t_m2l, 0.0);
  EXPECT_GT(t.t_p2m, 0.0);
  EXPECT_EQ(t.counts.m2l, lists_.total_m2l_pairs);
  // Total op time can't be less than the makespan of one core's share.
  const double work = t.t_p2m + t.t_m2m + t.t_m2l + t.t_l2l + t.t_l2p;
  EXPECT_GE(work, t.cpu_seconds * 0.999 / 10.0);  // 10 cores default
  EXPECT_LE(t.cpu_seconds, work * 1.2 + 1e-3);    // no worse than serial
}

TEST_F(MachineFixture, MoreCoresShrinkCpuTime) {
  ExpansionContext ctx(5);
  double prev = 1e30;
  for (int cores : {1, 2, 4, 8, 16}) {
    CpuModelConfig cpu;
    cpu.num_cores = cores;
    NodeSimulator node(cpu, GpuSystemConfig::uniform(1));
    const auto t = node.simulate_far_field(ctx, tree_, lists_);
    EXPECT_LT(t.cpu_seconds, prev) << "cores=" << cores;
    prev = t.cpu_seconds;
  }
}

TEST_F(MachineFixture, SpeedupFlattensAtHighCoreCounts) {
  // Fig. 6's qualitative shape: near-linear early, saturating late.
  ExpansionContext ctx(5);
  auto cpu_time = [&](int cores) {
    CpuModelConfig cpu;
    cpu.num_cores = cores;
    NodeSimulator node(cpu, GpuSystemConfig::uniform(1));
    return node.simulate_far_field(ctx, tree_, lists_).cpu_seconds;
  };
  const double t1 = cpu_time(1);
  const double s8 = t1 / cpu_time(8);
  const double s32 = t1 / cpu_time(32);
  EXPECT_GT(s8, 6.0);         // near-linear at 8
  EXPECT_GT(s32, s8);         // still improving
  EXPECT_LT(s32, 32.0 * 0.9); // but clearly sublinear at 32
}

TEST_F(MachineFixture, SerialBaselineExceedsParallelHeterogeneous) {
  ExpansionContext ctx(4);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(4));
  const double serial = node.serial_all_cpu_seconds(ctx, tree_, lists_);
  const auto t = node.simulate_far_field(ctx, tree_, lists_);
  EXPECT_GT(serial, t.cpu_seconds);
}

TEST_F(MachineFixture, StokesletPassesScaleFarFieldTimes) {
  ExpansionContext ctx(4);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(1));
  const auto t1 = node.simulate_far_field(ctx, tree_, lists_, 1);
  const auto t4 = node.simulate_far_field(ctx, tree_, lists_, 4);
  // The fluid problem's M2L cost is ~4x the gravitational one (paper,
  // Section IX.B).
  EXPECT_NEAR(t4.t_m2l / t1.t_m2l, 4.0, 0.01);
  EXPECT_GT(t4.cpu_seconds, 2.5 * t1.cpu_seconds);
}

TEST_F(MachineFixture, ExtensionOpsAreChargedWhenPresent) {
  ExpansionContext ctx(4);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(1));

  TraversalConfig ext;
  ext.use_m2p_p2l = true;
  // Rebuild the lists with tiny leaves so the extension actually fires.
  AdaptiveOctree fine;
  fine.build(pts_, unit_config(4));
  const auto lists = build_interaction_lists(fine, ext);
  const auto t = node.simulate_far_field(ctx, fine, lists);
  ASSERT_GT(t.counts.m2p + t.counts.p2l, 0u);
  EXPECT_GT(t.t_m2p + t.t_p2l, 0.0);
  // Classic path charges nothing for them.
  const auto base_lists = build_interaction_lists(fine);
  const auto tb = node.simulate_far_field(ctx, fine, base_lists);
  EXPECT_EQ(tb.t_m2p, 0.0);
  EXPECT_EQ(tb.t_p2l, 0.0);
}

TEST_F(MachineFixture, MaintenanceCostsScaleWithInput) {
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(1));
  EXPECT_GT(node.rebuild_seconds(100000, 5000),
            node.rebuild_seconds(10000, 500));
  EXPECT_GT(node.rebin_seconds(100000), node.rebin_seconds(10000));
  EXPECT_GT(node.enforce_seconds(100, 10000), node.enforce_seconds(1, 10000));
  EXPECT_GT(node.rebuild_seconds(100000, 5000), node.rebin_seconds(100000));
}

}  // namespace
}  // namespace afmm
