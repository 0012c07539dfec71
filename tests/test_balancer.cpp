#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "balance/load_balancer.hpp"
#include "core/fmm_solver.hpp"
#include "dist/distributions.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

TreeConfig unit_config(int S) {
  TreeConfig tc;
  tc.leaf_capacity = S;
  tc.root_center = {0.5, 0.5, 0.5};
  tc.root_half = 0.5;
  return tc;
}

// Full pipeline observation: solve-less timing of the current tree.
ObservedStepTimes observe_tree(const AdaptiveOctree& tree,
                               const NodeSimulator& node,
                               const ExpansionContext& ctx) {
  const auto lists = build_interaction_lists(tree);
  auto t = node.simulate_far_field(ctx, tree, lists);
  std::vector<int> all(lists.p2p.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  double worst = 0.0;
  const int g = static_cast<int>(node.gpus().devices.size());
  const auto parts = partition_p2p_work(lists.p2p, g, node.gpus().partition);
  for (int d = 0; d < g; ++d) {
    const auto shapes = collect_shapes(tree, lists.p2p, parts[d]);
    worst = std::max(
        worst, simulate_kernel(node.gpus().devices[d], shapes, 20.0).seconds);
  }
  t.gpu_seconds = worst;
  return t;
}

class BalancerLoop : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(61);
    set_ = uniform_cube(30000, rng, {0.5, 0.5, 0.5}, 0.5);
    node_ = std::make_unique<NodeSimulator>(CpuModelConfig{},
                                            GpuSystemConfig::uniform(2));
    ctx_ = std::make_unique<ExpansionContext>(4);
  }

  // Run `steps` balancer iterations on a static body set.
  std::vector<LbStepReport> drive(LoadBalancer& lb, AdaptiveOctree& tree,
                                  int steps) {
    std::vector<LbStepReport> out;
    for (int i = 0; i < steps; ++i) {
      const auto obs = observe_tree(tree, *node_, *ctx_);
      out.push_back(lb.post_step(tree, set_.positions, obs, *node_));
    }
    return out;
  }

  ParticleSet set_;
  std::unique_ptr<NodeSimulator> node_;
  std::unique_ptr<ExpansionContext> ctx_;
};

TEST_F(BalancerLoop, SearchConvergesAndBalancesDevices) {
  LoadBalancerConfig cfg;
  cfg.initial_S = 16;  // far from balanced: CPU-heavy
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));

  const auto reports = drive(lb, tree, 25);
  // Search must terminate within max_search_steps.
  int search_steps = 0;
  for (const auto& r : reports)
    if (r.state_before == LbState::kSearch) ++search_steps;
  EXPECT_LE(search_steps, cfg.max_search_steps);
  EXPECT_NE(lb.state(), LbState::kSearch);

  // After settling, CPU and GPU times must be within the relative gap.
  const auto obs = observe_tree(tree, *node_, *ctx_);
  const double gap = std::abs(obs.cpu_seconds - obs.gpu_seconds);
  EXPECT_LT(gap, 0.35 * obs.compute_seconds());
  // And S moved up from the CPU-heavy initial value.
  EXPECT_GT(lb.current_S(), 16);
}

TEST_F(BalancerLoop, ReachesObservationAndGoesQuiet) {
  LoadBalancerConfig cfg;
  cfg.initial_S = 32;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));

  const auto reports = drive(lb, tree, 40);
  EXPECT_EQ(lb.state(), LbState::kObservation);
  // Once in observation on a static workload, nothing should be modified.
  bool quiet = true;
  for (std::size_t i = reports.size() - 5; i < reports.size(); ++i)
    if (reports[i].rebuilt || reports[i].enforce_ops || reports[i].fgo_ops)
      quiet = false;
  EXPECT_TRUE(quiet);
}

TEST_F(BalancerLoop, StaticStrategyNeverTouchesTreeAfterSearch) {
  LoadBalancerConfig cfg;
  cfg.strategy = LbStrategy::kStatic;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));
  drive(lb, tree, 20);
  ASSERT_EQ(lb.state(), LbState::kObservation);

  // Squash the bodies: compute time degrades, but kStatic must do nothing.
  for (auto& p : set_.positions)
    p = Vec3{0.5, 0.5, 0.5} + 0.25 * (p - Vec3{0.5, 0.5, 0.5});
  tree.rebin(set_.positions);
  const auto reports = drive(lb, tree, 5);
  for (const auto& r : reports) {
    EXPECT_FALSE(r.rebuilt);
    EXPECT_EQ(r.enforce_ops, 0);
    EXPECT_EQ(r.fgo_ops, 0);
  }
}

TEST_F(BalancerLoop, EnforceOnlyStrategyReactsToDrift) {
  LoadBalancerConfig cfg;
  cfg.strategy = LbStrategy::kEnforceOnly;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));
  drive(lb, tree, 20);
  ASSERT_EQ(lb.state(), LbState::kObservation);

  for (auto& p : set_.positions)
    p = Vec3{0.5, 0.5, 0.5} + 0.2 * (p - Vec3{0.5, 0.5, 0.5});
  tree.rebin(set_.positions);
  EXPECT_GT(tree.max_leaf_count(), lb.current_S());

  const auto reports = drive(lb, tree, 3);
  int enforce_total = 0;
  for (const auto& r : reports) enforce_total += r.enforce_ops;
  EXPECT_GT(enforce_total, 0);
  EXPECT_LE(tree.max_leaf_count(), lb.current_S());
}

TEST_F(BalancerLoop, FullStrategyRecoversFromDrift) {
  LoadBalancerConfig cfg;
  cfg.strategy = LbStrategy::kFull;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));
  drive(lb, tree, 30);

  const double settled = observe_tree(tree, *node_, *ctx_).compute_seconds();

  // Drift: contract the cloud so the old tree is badly off.
  for (auto& p : set_.positions)
    p = Vec3{0.5, 0.5, 0.5} + 0.3 * (p - Vec3{0.5, 0.5, 0.5});
  tree.rebin(set_.positions);
  const double degraded = observe_tree(tree, *node_, *ctx_).compute_seconds();

  drive(lb, tree, 15);
  const double recovered = observe_tree(tree, *node_, *ctx_).compute_seconds();
  // Balancing must claw back most of the degradation (the contracted cloud
  // is denser, so matching the original time exactly is not expected).
  EXPECT_LT(recovered, degraded);
  EXPECT_LT(recovered, settled * 3.0);
}

TEST_F(BalancerLoop, ReportsCarryLbCosts) {
  LoadBalancerConfig cfg;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));
  const auto reports = drive(lb, tree, 10);
  // Rebuild steps must be charged a nonzero virtual cost.
  for (const auto& r : reports) {
    if (r.rebuilt) {
      EXPECT_GT(r.lb_seconds, 0.0);
    }
  }
}

TEST_F(BalancerLoop, FgoDisabledNeverAppliesFineGrainedOps) {
  LoadBalancerConfig cfg;
  cfg.enable_fgo = false;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));
  auto reports = drive(lb, tree, 25);

  // Perturb heavily to force observation-state reactions, then keep going.
  for (auto& p : set_.positions)
    p = Vec3{0.5, 0.5, 0.5} + 0.25 * (p - Vec3{0.5, 0.5, 0.5});
  tree.rebin(set_.positions);
  auto more = drive(lb, tree, 10);
  reports.insert(reports.end(), more.begin(), more.end());
  for (const auto& r : reports) EXPECT_EQ(r.fgo_ops, 0);
}

TEST_F(BalancerLoop, FgoImprovesPredictedComputeWhenUnbalanced) {
  // Engineer an unbalanced tree: settle the balancer, then force a much
  // finer tree (CPU-heavy) and check FineGrainedOptimize's prediction loop
  // claws the predicted compute time back down via collapses.
  LoadBalancerConfig cfg;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));
  drive(lb, tree, 25);

  // Refine everything one level below the balanced point: CPU-heavy.
  AdaptiveOctree fine;
  auto tc = unit_config(std::max(4, lb.current_S() / 4));
  fine.build(set_.positions, tc);
  const auto before = observe_tree(fine, *node_, *ctx_);
  EXPECT_GT(before.cpu_seconds, before.gpu_seconds);

  // Drive the observation state: it should enforce + fine-tune the tree.
  auto reports = drive(lb, fine, 4);
  int fgo = 0;
  for (const auto& r : reports) fgo += r.fgo_ops;
  const auto after = observe_tree(fine, *node_, *ctx_);
  // Whatever route the balancer took (FGO collapses or falling back to
  // incremental rebuilds), the compute time must not be left degraded.
  EXPECT_LT(after.compute_seconds(), before.compute_seconds() * 1.05);
  EXPECT_GE(fgo, 0);
}

// Scale every observed time by `f` (counts untouched): synthetic noise /
// drift that looks like the whole machine got uniformly slower.
ObservedStepTimes scaled(ObservedStepTimes t, double f) {
  t.cpu_seconds *= f;
  t.gpu_seconds *= f;
  t.cpu_p2p_seconds *= f;
  t.t_p2m *= f;
  t.t_m2m *= f;
  t.t_m2l *= f;
  t.t_l2l *= f;
  t.t_l2p *= f;
  return t;
}

TEST_F(BalancerLoop, InBandNoiseKeepsObservationIdle) {
  LoadBalancerConfig cfg;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));
  drive(lb, tree, 40);
  ASSERT_EQ(lb.state(), LbState::kObservation);

  // Observations jittered inside the 5% band AROUND THE RECORDED BEST: the
  // balancer must not touch anything -- no enforcement, no fine tuning, no
  // state change, no shift. (The steady-state compute can already sit near
  // the band edge, so the jitter is anchored to the balancer's own best.)
  double best = lb.post_step(tree, set_.positions,
                             observe_tree(tree, *node_, *ctx_), *node_)
                    .best_compute;
  for (double ratio : {1.04, 0.99, 1.03, 1.01}) {
    auto base = observe_tree(tree, *node_, *ctx_);
    const auto obs = scaled(base, ratio * best / base.compute_seconds());
    const auto r = lb.post_step(tree, set_.positions, obs, *node_);
    EXPECT_EQ(r.state_after, LbState::kObservation) << "ratio=" << ratio;
    EXPECT_FALSE(r.rebuilt);
    EXPECT_EQ(r.enforce_ops, 0);
    EXPECT_EQ(r.fgo_ops, 0);
    EXPECT_FALSE(r.capability_shift);
    EXPECT_DOUBLE_EQ(r.lb_seconds, 0.0);
    best = r.best_compute;
  }
}

TEST_F(BalancerLoop, OutOfBandNoiseWalksEnforcementNotShift) {
  LoadBalancerConfig cfg;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));
  drive(lb, tree, 40);
  ASSERT_EQ(lb.state(), LbState::kObservation);

  // A persistent 25% uniform slowdown is outside the band but below the
  // capability-shift threshold (and the health epoch never moved): the
  // balancer must react through the Section V path -- Enforce_S, prediction,
  // FineGrainedOptimize, falling back to Incremental -- and never through a
  // coefficient reset.
  bool reacted = false;
  for (int i = 0; i < 6; ++i) {
    const auto obs = scaled(observe_tree(tree, *node_, *ctx_), 1.25);
    const auto r = lb.post_step(tree, set_.positions, obs, *node_);
    EXPECT_FALSE(r.capability_shift);
    EXPECT_NE(r.state_after, LbState::kSearch);
    if (r.state_before == LbState::kObservation &&
        (r.lb_seconds > 0.0 || r.fgo_ops > 0))
      reacted = true;
  }
  EXPECT_TRUE(reacted);
}

TEST_F(BalancerLoop, EpochChangeAloneDoesNotTriggerShift) {
  LoadBalancerConfig cfg;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));
  drive(lb, tree, 40);
  ASSERT_EQ(lb.state(), LbState::kObservation);

  // A fault event that does not change observed behavior (e.g. a transfer
  // window that never fires) bumps the epoch; with no divergence there must
  // be no shift.
  node_->health().fault_epoch++;
  const auto reports = drive(lb, tree, 8);
  for (const auto& r : reports) {
    EXPECT_FALSE(r.capability_shift);
    EXPECT_EQ(r.state_after, LbState::kObservation);
  }
}

TEST(LoadBalancer, IncrementalTransitionRecordsObservedComputeExactly) {
  // Search -> Incremental -> Observation with controlled observations: the
  // dominant-device flip must record exactly min(observed, best) -- the old
  // code wrapped this in a redundant self-min when best was unset.
  Rng rng(99);
  auto set = uniform_cube(2000, rng, {0.5, 0.5, 0.5}, 0.5);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));

  LoadBalancerConfig cfg;
  cfg.strategy = LbStrategy::kFull;
  cfg.enable_fgo = false;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(cfg.initial_S));

  // Balanced observation: search finishes immediately, best = 1.0.
  ObservedStepTimes balanced;
  balanced.cpu_seconds = 1.0;
  balanced.gpu_seconds = 1.0;
  auto r = lb.post_step(tree, set.positions, balanced, node);
  ASSERT_EQ(r.state_after, LbState::kIncremental);
  EXPECT_DOUBLE_EQ(r.best_compute, 1.0);

  // Dominance flips CPU-ward with a better compute time: the transition to
  // Observation must record that observed time exactly.
  ObservedStepTimes flipped;
  flipped.cpu_seconds = 0.9;
  flipped.gpu_seconds = 0.7;
  r = lb.post_step(tree, set.positions, flipped, node);
  EXPECT_EQ(r.state_after, LbState::kObservation);
  EXPECT_DOUBLE_EQ(r.best_compute, flipped.compute_seconds());

  // Same flip with a WORSE observed time: the previous best must survive.
  LoadBalancer lb2(cfg, TraversalConfig{});
  AdaptiveOctree tree2;
  tree2.build(set.positions, unit_config(cfg.initial_S));
  r = lb2.post_step(tree2, set.positions, balanced, node);
  ASSERT_EQ(r.state_after, LbState::kIncremental);
  ObservedStepTimes worse;
  worse.cpu_seconds = 1.4;
  worse.gpu_seconds = 1.2;
  r = lb2.post_step(tree2, set.positions, worse, node);
  EXPECT_EQ(r.state_after, LbState::kObservation);
  EXPECT_DOUBLE_EQ(r.best_compute, 1.0);
}

// Child of `id` whose box contains `p`.
int child_containing(const AdaptiveOctree& tree, int id, Vec3 p) {
  for (int c : tree.node(id).children) {
    const OctreeNode& n = tree.node(c);
    if (std::abs(p.x - n.center.x) <= n.half &&
        std::abs(p.y - n.center.y) <= n.half &&
        std::abs(p.z - n.center.z) <= n.half)
      return c;
  }
  return -1;
}

// Ids of the nodes beneath a collapsed ancestor: not part of the solve.
std::vector<int> hidden_nodes(const AdaptiveOctree& tree) {
  std::vector<int> out;
  for (int id = 0; id < tree.num_nodes(); ++id)
    for (int a = tree.node(id).parent; a >= 0; a = tree.node(a).parent)
      if (tree.node(a).collapsed) {
        out.push_back(id);
        break;
      }
  return out;
}

TEST(LoadBalancer, FgoNeverTouchesNodesHiddenBelowACollapsedParent) {
  // A collapsed parent P over a hidden collapsed child X, then the bodies
  // of X move away: rebin refreshes P's span but leaves X's stale, so X
  // (and the leaves below it) still claim the old crowd. FineGrainedOptimize
  // must pick candidates from the effective tree only; scanning every node
  // id pushes those hidden nodes down and, when a batch holding both X and
  // P is reverted, collapses an effective leaf and throws.
  Rng rng(7);
  ParticleSet set = uniform_cube(4000, rng, {0.5, 0.5, 0.5}, 0.5);
  const Vec3 crowd{0.1, 0.1, 0.1};
  const std::size_t first_crowd = set.positions.size();
  for (int i = 0; i < 2000; ++i)
    set.positions.push_back(crowd + Vec3{rng.uniform(-0.01, 0.01),
                                         rng.uniform(-0.01, 0.01),
                                         rng.uniform(-0.01, 0.01)});
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(32));
  const int P = child_containing(tree, tree.root(), crowd);
  ASSERT_GE(P, 0);
  const int X = child_containing(tree, P, crowd);
  ASSERT_GE(X, 0);
  ASSERT_FALSE(tree.is_effective_leaf(X));
  tree.collapse(X);
  tree.collapse(P);
  for (std::size_t i = first_crowd; i < set.positions.size(); ++i)
    set.positions[i] += Vec3{0.8, 0.8, 0.8};
  tree.rebin(set.positions);
  ASSERT_GT(tree.node(X).count, tree.node(P).count);  // X's span is stale

  struct NodeState {
    bool collapsed, has_children;
    std::uint32_t begin, count;
    bool operator==(const NodeState&) const = default;
  };
  auto state_of = [&](int id) {
    const OctreeNode& n = tree.node(id);
    return NodeState{n.collapsed, n.has_children, n.begin, n.count};
  };
  const std::vector<int> hidden = hidden_nodes(tree);
  ASSERT_FALSE(hidden.empty());
  std::vector<NodeState> before;
  for (int id : hidden) before.push_back(state_of(id));

  // Incremental state whose dominant side flips on this observation with a
  // wide gap: post_step runs FineGrainedOptimize. Only the near field is
  // priced, so the optimizer pushes leaves down.
  LoadBalancerConfig cfg;
  cfg.shift_relative = 0.0;
  LoadBalancer lb(cfg, TraversalConfig{});
  LoadBalancerSnapshot snap = lb.snapshot();
  snap.state = LbState::kIncremental;
  snap.S = 32;
  snap.last_dominant = -1;
  snap.best_compute = 1.0;
  snap.model.coefficients.p2p = 1e-9;
  snap.model.observations = 5;
  lb.restore(snap);
  ObservedStepTimes obs;
  obs.cpu_seconds = 1.0;
  obs.gpu_seconds = 0.1;
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));

  LbStepReport r;
  ASSERT_NO_THROW(r = lb.post_step(tree, set.positions, obs, node));
  EXPECT_GT(r.fgo_ops, 0);
  const std::vector<int> still = hidden_nodes(tree);
  for (std::size_t k = 0; k < hidden.size(); ++k)
    if (std::binary_search(still.begin(), still.end(), hidden[k]))
      EXPECT_TRUE(state_of(hidden[k]) == before[k])
          << "hidden node " << hidden[k] << " was modified";
}

TEST(LoadBalancer, ToStringCoversEnums) {
  EXPECT_STREQ(to_string(LbState::kSearch), "search");
  EXPECT_STREQ(to_string(LbState::kIncremental), "incremental");
  EXPECT_STREQ(to_string(LbState::kObservation), "observation");
  EXPECT_STREQ(to_string(LbStrategy::kStatic), "static");
  EXPECT_STREQ(to_string(LbStrategy::kEnforceOnly), "enforce-only");
  EXPECT_STREQ(to_string(LbStrategy::kFull), "full");
}

}  // namespace
}  // namespace afmm
