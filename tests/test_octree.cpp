#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>

#include "dist/distributions.hpp"
#include "octree/octree.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

std::vector<Vec3> random_points(Rng& rng, int n, const Vec3& c, double half) {
  std::vector<Vec3> pts;
  for (int i = 0; i < n; ++i)
    pts.push_back(c + Vec3{rng.uniform(-half, half), rng.uniform(-half, half),
                           rng.uniform(-half, half)});
  return pts;
}

TreeConfig unit_config(int S) {
  TreeConfig tc;
  tc.leaf_capacity = S;
  tc.root_center = {0.5, 0.5, 0.5};
  tc.root_half = 0.5;
  return tc;
}

// Every body must lie inside the box of every effective leaf that claims it
// right after a build.
void expect_geometric_containment(const AdaptiveOctree& tree) {
  const auto pos = tree.sorted_positions();
  for (int leaf : tree.effective_leaves()) {
    const auto& n = tree.node(leaf);
    for (std::uint32_t b = n.begin; b < n.begin + n.count; ++b)
      for (int d = 0; d < 3; ++d) {
        EXPECT_GE(pos[b][d], n.center[d] - n.half - 1e-12);
        EXPECT_LE(pos[b][d], n.center[d] + n.half + 1e-12);
      }
  }
}

// Every body in an effective parent's child span sits in that child's
// octant of the parent: `p >= center` goes to the upper half in each
// dimension, so bodies on a splitting plane go up, bodies outside the root
// cube saturate toward the nearest boundary cell, and NaN (every comparison
// false) goes low. Unlike expect_geometric_containment this holds for any
// input, including out-of-cube and non-finite positions.
void expect_octant_routing(const AdaptiveOctree& tree) {
  const auto pos = tree.sorted_positions();
  for (int id = 0; id < tree.num_nodes(); ++id) {
    if (tree.is_effective_leaf(id)) continue;
    const auto& n = tree.node(id);
    for (int o = 0; o < 8; ++o) {
      const auto& c = tree.node(n.children[o]);
      for (std::uint32_t b = c.begin; b < c.begin + c.count; ++b)
        for (int d = 0; d < 3; ++d)
          EXPECT_EQ(pos[b][d] >= n.center[d], ((o >> d) & 1) != 0)
              << "node " << id << " octant " << o << " body " << b;
    }
  }
}

// Exact comparison of two trees: every node field, the permutation and the
// tree-ordered positions.
void expect_identical_trees(const AdaptiveOctree& a, const AdaptiveOctree& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (int i = 0; i < a.num_nodes(); ++i) {
    const auto& x = a.node(i);
    const auto& y = b.node(i);
    EXPECT_EQ(x.center, y.center) << "node " << i;
    EXPECT_EQ(x.half, y.half) << "node " << i;
    EXPECT_EQ(x.parent, y.parent) << "node " << i;
    EXPECT_EQ(x.children, y.children) << "node " << i;
    EXPECT_EQ(x.has_children, y.has_children) << "node " << i;
    EXPECT_EQ(x.level, y.level) << "node " << i;
    EXPECT_EQ(x.collapsed, y.collapsed) << "node " << i;
    EXPECT_EQ(x.begin, y.begin) << "node " << i;
    EXPECT_EQ(x.count, y.count) << "node " << i;
  }
  ASSERT_EQ(a.num_bodies(), b.num_bodies());
  for (std::size_t t = 0; t < a.num_bodies(); ++t) {
    ASSERT_EQ(a.perm()[t], b.perm()[t]) << "perm slot " << t;
    ASSERT_EQ(a.sorted_positions()[t], b.sorted_positions()[t])
        << "sorted position " << t;
  }
}

// Root child (octant) whose span holds original body `index`.
int root_octant_of_body(const AdaptiveOctree& tree, std::uint32_t index) {
  const auto perm = tree.perm();
  const auto slot = static_cast<std::uint32_t>(
      std::find(perm.begin(), perm.end(), index) - perm.begin());
  const auto& root = tree.node(tree.root());
  for (int o = 0; o < 8; ++o) {
    const auto& c = tree.node(root.children[o]);
    if (slot >= c.begin && slot < c.begin + c.count) return o;
  }
  return -1;
}

struct BuildCase {
  int n;
  int s;
};

class OctreeBuild : public ::testing::TestWithParam<BuildCase> {};

TEST_P(OctreeBuild, InvariantsAndLeafCapacity) {
  const auto [n, s] = GetParam();
  Rng rng(n * 31 + s);
  const auto pts = random_points(rng, n, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(s));
  tree.check_invariants();

  // Build subdivides while count > S, so every effective leaf is <= S (the
  // max-depth escape hatch cannot trigger for uniform points at these sizes).
  for (int leaf : tree.effective_leaves())
    EXPECT_LE(tree.node(leaf).count, static_cast<std::uint32_t>(s));

  // Leaves partition the bodies.
  std::uint64_t total = 0;
  for (int leaf : tree.effective_leaves()) total += tree.node(leaf).count;
  EXPECT_EQ(total, static_cast<std::uint64_t>(n));

  expect_geometric_containment(tree);
  expect_octant_routing(tree);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, OctreeBuild,
    ::testing::Values(BuildCase{0, 8}, BuildCase{1, 8}, BuildCase{7, 8},
                      BuildCase{100, 8}, BuildCase{1000, 16},
                      BuildCase{5000, 16}, BuildCase{5000, 64},
                      BuildCase{5000, 1}, BuildCase{20000, 32}));

TEST(Octree, ParallelAndSerialBuildsAgree) {
  // Subtrees above the task cutoff are built as OpenMP tasks; the result
  // must not depend on how many threads run them.
  Rng rng(5);
  const auto uniform = random_points(rng, 20000, {0.5, 0.5, 0.5}, 0.5);
  const auto clustered =
      plummer(20000, rng, {.scale_radius = 0.02, .center = {0.5, 0.5, 0.5}})
          .positions;
  const int threads = omp_get_max_threads();
  for (const auto* pts : {&uniform, &clustered}) {
    AdaptiveOctree serial, parallel;
    omp_set_num_threads(1);
    serial.build(*pts, unit_config(24));
    omp_set_num_threads(threads);
    parallel.build(*pts, unit_config(24));
    serial.check_invariants();
    expect_identical_trees(serial, parallel);
  }
}

TEST(Octree, ClusteredDistributionGoesDeep) {
  Rng rng(6);
  // Tight cluster: adaptive depth must exceed the uniform depth for the
  // same S by a wide margin.
  auto pts = random_points(rng, 2000, {0.5, 0.5, 0.5}, 0.001);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(16));
  tree.check_invariants();
  EXPECT_GE(tree.effective_depth(), 9);
}

TEST(Octree, MaxDepthCapsRecursion) {
  // All points identical: subdivision can never separate them, so the tree
  // must stop at max_depth with an over-full leaf.
  std::vector<Vec3> pts(100, Vec3{0.5, 0.5, 0.5});
  AdaptiveOctree tree;
  auto tc = unit_config(4);
  tc.max_depth = 6;
  tree.build(pts, tc);
  tree.check_invariants();
  EXPECT_LE(tree.effective_depth(), 6);
  EXPECT_EQ(tree.max_leaf_count(), 100);
}

TEST(Octree, FullDepth21Build) {
  // max_depth at the top of its range: a tight cluster refines all the way
  // down, and only level-21 leaves may exceed S.
  Rng rng(3);
  const auto pts = random_points(rng, 2000, {0.5, 0.5, 0.5}, 1e-5);
  auto tc = unit_config(2);
  tc.max_depth = 21;
  AdaptiveOctree tree;
  tree.build(pts, tc);
  tree.check_invariants();
  expect_octant_routing(tree);
  EXPECT_EQ(tree.effective_depth(), 21);
  for (int leaf : tree.effective_leaves()) {
    if (tree.node(leaf).level < 21) {
      EXPECT_LE(tree.node(leaf).count, 2u);
    }
  }
}

TEST(Octree, BodiesOnSplittingPlanesGoToTheUpperOctant) {
  // Bodies exactly on splitting planes of several depths (0.5 = level 0,
  // 0.25 / 0.75 = level 1, ...), each twice so some leaves stay shared, plus
  // the cube corners and the exact center.
  std::vector<Vec3> pts;
  const double planes[] = {0.5, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875};
  for (double x : planes)
    for (double y : planes)
      for (double z : planes) pts.push_back({x, y, z});
  const std::size_t first_batch = pts.size();
  for (std::size_t i = 0; i < first_batch; ++i) pts.push_back(pts[i]);
  for (int o = 0; o < 8; ++o)
    pts.push_back({(o & 1) ? 1.0 : 0.0, (o & 2) ? 1.0 : 0.0,
                   (o & 4) ? 1.0 : 0.0});
  pts.push_back({0.5, 0.5, 0.5});

  for (int s : {1, 4, 16}) {
    auto tc = unit_config(s);
    tc.max_depth = 8;  // duplicates can never separate; cap the recursion
    AdaptiveOctree tree;
    tree.build(pts, tc);
    tree.check_invariants();
    expect_octant_routing(tree);
    // The center (0.5, 0.5, 0.5) sits on all three root planes: octant 7.
    EXPECT_EQ(root_octant_of_body(tree, 0), 7) << "S=" << s;
    // (0.5, 0.5, 0.25): upper in x and y, lower in z.
    EXPECT_EQ(root_octant_of_body(tree, 1), 3) << "S=" << s;
    // Per dimension, 3 of the 7 plane values are below 0.5, so each root
    // octant holds 3^k * 4^(3-k) plane points (k = upper dims), twice.
    const auto& root = tree.node(tree.root());
    for (int o = 0; o < 8; ++o) {
      const int k = std::popcount(static_cast<unsigned>(o));
      std::uint32_t expect = 2;
      for (int d = 0; d < 3; ++d) expect *= d < k ? 4 : 3;
      expect += 1 + (o == 7 ? 1 : 0);  // one cube corner each, plus center
      EXPECT_EQ(tree.node(root.children[o]).count, expect)
          << "S=" << s << " octant " << o;
    }
  }
}

TEST(Octree, OutOfCubePointsGoToTheNearestBoundaryCell) {
  // fit_cube normally keeps bodies inside the root, but a rebuild after
  // drift can see strays; they bucket by the same comparisons.
  Rng rng(77);
  auto pts = random_points(rng, 500, {0.5, 0.5, 0.5}, 0.5);
  pts.push_back({-2.0, 0.3, 0.3});
  pts.push_back({3.0, 1.7, -0.2});
  pts.push_back({0.5, 5.0, 0.5});
  AdaptiveOctree tree;
  tree.build(pts, unit_config(8));
  tree.check_invariants();
  expect_octant_routing(tree);
  EXPECT_EQ(root_octant_of_body(tree, 500), 0);
  EXPECT_EQ(root_octant_of_body(tree, 501), 3);
  EXPECT_EQ(root_octant_of_body(tree, 502), 7);
}

TEST(Octree, NonFinitePositionsStillBuild) {
  // The resilience loop rebuilds from fault-corrupted positions and relies
  // on the auditor, not the builder, to reject them: NaN compares false
  // and sinks to the low octant, +inf goes up, -inf goes down.
  Rng rng(11);
  auto pts = random_points(rng, 500, {0.5, 0.5, 0.5}, 0.5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  pts[31] = {0.75, nan, 0.75};
  pts[77] = {nan, nan, nan};
  pts[123] = {0.25, 0.25, inf};
  pts[200] = {-inf, 0.75, 0.25};
  auto tc = unit_config(8);
  tc.max_depth = 8;
  AdaptiveOctree tree;
  tree.build(pts, tc);
  tree.check_invariants();
  expect_octant_routing(tree);
  EXPECT_EQ(root_octant_of_body(tree, 31), 5);
  EXPECT_EQ(root_octant_of_body(tree, 77), 0);
  EXPECT_EQ(root_octant_of_body(tree, 123), 4);
  EXPECT_EQ(root_octant_of_body(tree, 200), 2);
}

TEST(Octree, InvalidConfigThrowsNamingTheField) {
  Rng rng(12);
  const auto pts = random_points(rng, 10, {0.5, 0.5, 0.5}, 0.5);
  auto expect_rejects = [&](const TreeConfig& tc, const std::string& field) {
    AdaptiveOctree tree;
    for (int uniform : {0, 1}) {
      try {
        if (uniform)
          tree.build_uniform(pts, tc, 0);
        else
          tree.build(pts, tc);
        ADD_FAILURE() << field << " accepted (uniform=" << uniform << ")";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
      }
    }
  };
  for (int depth : {-1, 22}) {
    auto tc = unit_config(8);
    tc.max_depth = depth;
    expect_rejects(tc, "max_depth");
  }
  // S = 0 would split every non-empty node down to max_depth.
  for (int s : {0, -3}) expect_rejects(unit_config(s), "leaf_capacity");
}

TEST(Octree, BuildUniformDepthValidatesAgainstMaxDepth) {
  // A uniform build materializes 8^depth nodes, so config.max_depth bounds
  // the requested depth.
  const std::vector<Vec3> pts = {{0.25, 0.25, 0.25}, {0.75, 0.75, 0.75}};
  auto tc = unit_config(8);
  tc.max_depth = 3;
  AdaptiveOctree tree;
  tree.build_uniform(pts, tc, 3);
  tree.check_invariants();
  EXPECT_EQ(tree.effective_depth(), 3);
  for (int depth : {4, 5, -1})
    EXPECT_THROW(tree.build_uniform(pts, tc, depth), std::invalid_argument);
}

TEST(Octree, PermIsConsistentWithSortedPositions) {
  Rng rng(7);
  const auto pts = random_points(rng, 500, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(10));
  const auto perm = tree.perm();
  const auto sorted = tree.sorted_positions();
  for (std::size_t t = 0; t < perm.size(); ++t)
    EXPECT_EQ(sorted[t], pts[perm[t]]);
}

TEST(Octree, GatherScatterRoundTrip) {
  Rng rng(8);
  const auto pts = random_points(rng, 300, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(10));
  std::vector<double> original(300);
  for (int i = 0; i < 300; ++i) original[i] = i * 1.5;
  std::vector<double> tree_order;
  tree.gather(std::span<const double>(original), tree_order);
  std::vector<double> back(300, -1);
  tree.scatter(std::span<const double>(tree_order), std::span<double>(back));
  EXPECT_EQ(original, back);
}

TEST(Octree, CollapseHidesChildren) {
  Rng rng(9);
  const auto pts = random_points(rng, 2000, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(32));
  const int before = static_cast<int>(tree.effective_leaves().size());

  // Find a "bottom" parent (all children effective leaves) and collapse it.
  int parent = -1;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    if (tree.is_effective_leaf(id)) continue;
    bool bottom = true;
    for (int c : tree.node(id).children)
      if (!tree.is_effective_leaf(c)) bottom = false;
    if (bottom) {
      parent = id;
      break;
    }
  }
  ASSERT_GE(parent, 0);
  tree.collapse(parent);
  EXPECT_TRUE(tree.is_effective_leaf(parent));
  const int after = static_cast<int>(tree.effective_leaves().size());
  // Eight children (some may be empty but still counted as leaves if
  // nonempty) are replaced by one leaf.
  EXPECT_LT(after, before);
  tree.check_invariants();
}

TEST(Octree, PushDownAfterCollapseRestoresSpans) {
  Rng rng(10);
  const auto pts = random_points(rng, 3000, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(32));

  int parent = -1;
  for (int id = 0; id < tree.num_nodes(); ++id)
    if (!tree.is_effective_leaf(id)) parent = id;
  ASSERT_GE(parent, 0);

  // Record child spans, collapse, push down, compare.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> spans;
  for (int c : tree.node(parent).children)
    spans.push_back({tree.node(c).begin, tree.node(c).count});

  // Only collapse if children are leaves (collapse requires effective
  // parent; push_down reclaims). Force the situation: collapse bottom-up.
  auto collapse_subtree = [&](auto&& self, int id) -> void {
    if (tree.is_effective_leaf(id)) return;
    for (int c : tree.node(id).children) self(self, c);
    tree.collapse(id);
  };
  collapse_subtree(collapse_subtree, parent);
  ASSERT_TRUE(tree.is_effective_leaf(parent));

  ASSERT_TRUE(tree.push_down(parent));
  int i = 0;
  for (int c : tree.node(parent).children) {
    EXPECT_EQ(tree.node(c).begin, spans[i].first);
    EXPECT_EQ(tree.node(c).count, spans[i].second);
    ++i;
  }
}

TEST(Octree, PushDownAllocatesFreshChildrenOnTrueLeaf) {
  Rng rng(11);
  const auto pts = random_points(rng, 64, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(100));  // single leaf at root
  ASSERT_TRUE(tree.is_effective_leaf(tree.root()));
  const int nodes_before = tree.num_nodes();
  ASSERT_TRUE(tree.push_down(tree.root()));
  EXPECT_EQ(tree.num_nodes(), nodes_before + 8);
  tree.check_invariants();
  std::uint32_t sum = 0;
  for (int c : tree.node(tree.root()).children) sum += tree.node(c).count;
  EXPECT_EQ(sum, 64u);
}

TEST(Octree, PushDownAtMaxDepthRefuses) {
  std::vector<Vec3> pts(10, Vec3{0.5, 0.5, 0.5});
  AdaptiveOctree tree;
  auto tc = unit_config(100);
  tc.max_depth = 0;
  tree.build(pts, tc);
  EXPECT_FALSE(tree.push_down(tree.root()));
}

TEST(Octree, CollapseOnLeafThrows) {
  std::vector<Vec3> pts(5, Vec3{0.5, 0.5, 0.5});
  AdaptiveOctree tree;
  tree.build(pts, unit_config(100));
  EXPECT_THROW(tree.collapse(tree.root()), std::logic_error);
}

TEST(Octree, PushDownOnInternalThrows) {
  Rng rng(12);
  const auto pts = random_points(rng, 1000, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(16));
  ASSERT_FALSE(tree.is_effective_leaf(tree.root()));
  EXPECT_THROW(tree.push_down(tree.root()), std::logic_error);
}

TEST(Octree, EnforceSRestoresCapacityAfterMotion) {
  Rng rng(13);
  auto pts = random_points(rng, 4000, {0.5, 0.5, 0.5}, 0.4);
  AdaptiveOctree tree;
  const int S = 32;
  tree.build(pts, unit_config(S));

  // Pull all bodies toward the center: leaves there overflow.
  for (auto& p : pts) p = Vec3{0.5, 0.5, 0.5} + 0.12 * (p - Vec3{0.5, 0.5, 0.5});
  tree.rebin(pts);
  EXPECT_GT(tree.max_leaf_count(), S);

  const int ops = tree.enforce_S(S);
  EXPECT_GT(ops, 0);
  tree.check_invariants();
  EXPECT_LE(tree.max_leaf_count(), S);

  // And no effective parent holds <= S bodies.
  for (int id = 0; id < tree.num_nodes(); ++id)
    if (!tree.is_effective_leaf(id) && tree.node(id).count > 0) {
      EXPECT_GT(tree.node(id).count, static_cast<std::uint32_t>(S));
    }
}

TEST(Octree, EnforceSIsIdempotent) {
  Rng rng(14);
  auto pts = random_points(rng, 3000, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(20));
  for (auto& p : pts) p += Vec3{0.03, -0.02, 0.01};
  tree.rebin(pts);
  tree.enforce_S(20);
  EXPECT_EQ(tree.enforce_S(20), 0);
}

TEST(Octree, RebinKeepsStructureAndCounts) {
  Rng rng(15);
  auto pts = random_points(rng, 2000, {0.5, 0.5, 0.5}, 0.45);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(24));
  const int nodes = tree.num_nodes();
  const auto leaves = tree.effective_leaves();

  for (auto& p : pts)
    p += Vec3{rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01),
              rng.uniform(-0.01, 0.01)};
  tree.rebin(pts);
  tree.check_invariants();
  EXPECT_EQ(tree.num_nodes(), nodes);
  EXPECT_EQ(tree.effective_leaves(), leaves);
  std::uint64_t total = 0;
  for (int leaf : tree.effective_leaves()) total += tree.node(leaf).count;
  EXPECT_EQ(total, 2000u);
}

TEST(Octree, RebinRejectsChangedBodyCount) {
  Rng rng(16);
  auto pts = random_points(rng, 100, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(10));
  pts.pop_back();
  EXPECT_THROW(tree.rebin(pts), std::invalid_argument);
}

TEST(Octree, UniformBuildHasAllLeavesAtDepth) {
  Rng rng(17);
  const auto pts = random_points(rng, 2000, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build_uniform(pts, unit_config(1), 3);
  tree.check_invariants();
  int leaves = 0;
  for (int id = 0; id < tree.num_nodes(); ++id)
    if (tree.is_effective_leaf(id)) {
      EXPECT_EQ(tree.node(id).level, 3);
      ++leaves;
    }
  EXPECT_EQ(leaves, 8 * 8 * 8);
}

TEST(Octree, UniformBuildDepthZeroIsSingleLeaf) {
  Rng rng(18);
  const auto pts = random_points(rng, 50, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build_uniform(pts, unit_config(1), 0);
  EXPECT_EQ(tree.num_nodes(), 1);
  EXPECT_TRUE(tree.is_effective_leaf(tree.root()));
}

TEST(Octree, FitCubeContainsAllPoints) {
  Rng rng(19);
  std::vector<Vec3> pts;
  for (int i = 0; i < 200; ++i)
    pts.push_back({rng.uniform(-3, 7), rng.uniform(10, 12), rng.uniform(-1, 0)});
  const auto tc = fit_cube(pts);
  for (const auto& p : pts)
    for (int d = 0; d < 3; ++d) {
      EXPECT_GE(p[d], tc.root_center[d] - tc.root_half);
      EXPECT_LE(p[d], tc.root_center[d] + tc.root_half);
    }
}

TEST(Octree, EffectiveLeavesRespectCollapseFlag) {
  Rng rng(20);
  const auto pts = random_points(rng, 3000, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(16));
  const auto before = tree.effective_leaves().size();
  // Collapse the deepest bottom parent.
  int target = -1;
  int best_level = -1;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    if (tree.is_effective_leaf(id)) continue;
    bool bottom = true;
    for (int c : tree.node(id).children)
      if (!tree.is_effective_leaf(c)) bottom = false;
    if (bottom && tree.node(id).level > best_level) {
      best_level = tree.node(id).level;
      target = id;
    }
  }
  ASSERT_GE(target, 0);
  tree.collapse(target);
  const auto after = tree.effective_leaves().size();
  EXPECT_LT(after, before);
  for (int leaf : tree.effective_leaves()) {
    // No effective leaf may sit strictly below a collapsed ancestor.
    int up = tree.node(leaf).parent;
    while (up >= 0) {
      EXPECT_FALSE(tree.is_effective_leaf(up) && up != leaf)
          << "leaf below an effective leaf";
      up = tree.node(up).parent;
    }
  }
}

TEST(Octree, RandomSurgerySequencePreservesInvariants) {
  // Property test: any sequence of rebin / enforce_S / collapse / push_down
  // on drifting bodies keeps the structural invariants and the body
  // partition intact. This is the paper's tree-maintenance life cycle run
  // for hundreds of random operations.
  Rng rng(2024);
  auto pts = random_points(rng, 3000, {0.5, 0.5, 0.5}, 0.4);
  AdaptiveOctree tree;
  const int S = 24;
  tree.build(pts, unit_config(S));

  for (int op = 0; op < 200; ++op) {
    switch (rng.below(4)) {
      case 0: {  // drift bodies and rebin
        for (auto& p : pts) {
          p += Vec3{rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01),
                    rng.uniform(-0.01, 0.01)};
          for (int d = 0; d < 3; ++d) p[d] = std::clamp(p[d], 0.001, 0.999);
        }
        tree.rebin(pts);
        break;
      }
      case 1:
        tree.enforce_S(S);
        break;
      case 2: {  // collapse a random bottom parent, if any
        std::vector<int> bottoms;
        for (int id = 0; id < tree.num_nodes(); ++id) {
          if (tree.is_effective_leaf(id)) continue;
          bool bottom = true;
          for (int c : tree.node(id).children)
            if (!tree.is_effective_leaf(c)) bottom = false;
          if (bottom) bottoms.push_back(id);
        }
        if (!bottoms.empty())
          tree.collapse(bottoms[rng.below(bottoms.size())]);
        break;
      }
      case 3: {  // push a random non-trivial leaf down
        const auto leaves = tree.effective_leaves();
        std::vector<int> candidates;
        for (int leaf : leaves)
          if (tree.node(leaf).count > 1 &&
              tree.node(leaf).level < tree.config().max_depth)
            candidates.push_back(leaf);
        if (!candidates.empty())
          tree.push_down(candidates[rng.below(candidates.size())]);
        break;
      }
    }
    tree.check_invariants();
    // Bodies always remain partitioned among effective leaves.
    std::uint64_t total = 0;
    for (int leaf : tree.effective_leaves()) total += tree.node(leaf).count;
    ASSERT_EQ(total, pts.size()) << "op " << op;
  }
}

TEST(Octree, EnforceAfterSurgeryRestoresCapacity) {
  Rng rng(2025);
  auto pts = random_points(rng, 2000, {0.5, 0.5, 0.5}, 0.4);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(16));
  // Collapse everything bottom-up to a shallow tree, then enforce.
  auto collapse_all = [&](auto&& self, int id) -> void {
    if (tree.is_effective_leaf(id)) return;
    for (int c : tree.node(id).children) self(self, c);
    if (tree.node(id).level >= 2) tree.collapse(id);
  };
  collapse_all(collapse_all, tree.root());
  EXPECT_GT(tree.max_leaf_count(), 16);
  tree.enforce_S(16);
  tree.check_invariants();
  EXPECT_LE(tree.max_leaf_count(), 16);
}

// Geometry and body span of every effective leaf, in traversal order.
std::vector<std::tuple<Vec3, double, int, std::uint32_t, std::uint32_t>>
effective_layout(const AdaptiveOctree& tree) {
  std::vector<std::tuple<Vec3, double, int, std::uint32_t, std::uint32_t>> out;
  for (int leaf : tree.effective_leaves()) {
    const auto& n = tree.node(leaf);
    out.emplace_back(n.center, n.half, n.level, n.begin, n.count);
  }
  return out;
}

TEST(Octree, EnforceSDownAndUpMatchesAFreshBuild) {
  // Tightening S pushes leaves down exactly where a build at the new S would
  // split, with the same stable partitions; loosening it collapses back to
  // the leaves a build at the looser S would stop at.
  Rng rng(31);
  auto set =
      plummer(4000, rng, {.scale_radius = 0.05, .center = {0.5, 0.5, 0.5}});
  AdaptiveOctree tree, fresh16, fresh256;
  tree.build(set.positions, unit_config(64));
  fresh16.build(set.positions, unit_config(16));
  fresh256.build(set.positions, unit_config(256));

  EXPECT_GT(tree.enforce_S(16), 0);
  tree.check_invariants();
  EXPECT_LE(tree.max_leaf_count(), 16);
  EXPECT_EQ(effective_layout(tree), effective_layout(fresh16));
  EXPECT_TRUE(std::equal(tree.perm().begin(), tree.perm().end(),
                         fresh16.perm().begin(), fresh16.perm().end()));

  EXPECT_GT(tree.enforce_S(256), 0);
  tree.check_invariants();
  EXPECT_EQ(effective_layout(tree), effective_layout(fresh256));
  EXPECT_EQ(tree.enforce_S(256), 0);
}

TEST(Octree, CollapseRebinPushDownReclaimsHiddenChildren) {
  // collapse hides children, a rebin moves bodies inside the collapsed span
  // (hidden child spans go stale), and push_down must repartition the
  // reclaimed children rather than trust the stale spans.
  Rng rng(41);
  auto pts = random_points(rng, 2000, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(32));

  // Collapse every effective parent of leaves (deepest internal nodes).
  std::vector<int> collapsed;
  for (int leaf : tree.effective_leaves()) {
    const int parent = tree.node(leaf).parent;
    if (parent >= 0 && !tree.is_effective_leaf(parent)) {
      tree.collapse(parent);
      collapsed.push_back(parent);
    }
  }
  ASSERT_FALSE(collapsed.empty());
  tree.check_invariants();

  for (auto& p : pts)
    for (int d = 0; d < 3; ++d)
      p[d] = std::clamp(p[d] + rng.uniform(-0.02, 0.02), 0.001, 0.999);
  tree.rebin(pts);
  tree.check_invariants();

  // Only collapsed nodes reachable in the effective tree are eligible:
  // enforce_S walks top-down and never touches a node hidden beneath
  // another collapse, whose span is stale by design.
  const int nodes_before = tree.num_nodes();
  std::vector<int> pushed;
  for (int id : tree.effective_leaves())
    if (tree.node(id).collapsed && tree.push_down(id)) pushed.push_back(id);
  ASSERT_FALSE(pushed.empty());
  EXPECT_EQ(tree.num_nodes(), nodes_before);  // reclaimed, not reallocated
  tree.check_invariants();
  expect_octant_routing(tree);

  // A full enforce_S pass reclaims any remaining hidden structure and leaves
  // a capacity-respecting tree.
  tree.enforce_S(32);
  tree.check_invariants();
  EXPECT_LE(tree.max_leaf_count(), 32);
}

TEST(Octree, PlummerBuildIsHighlyAdaptive) {
  Rng rng(21);
  PlummerOptions opt;
  opt.scale_radius = 0.02;
  opt.center = {0.5, 0.5, 0.5};
  opt.max_radius = 20.0;
  auto set = plummer(20000, rng, opt);
  AdaptiveOctree tree;
  auto tc = unit_config(32);
  tc.root_half = 0.5;
  tree.build(set.positions, tc);
  tree.check_invariants();
  // Central density >> edge density: depth spread must be large (the paper's
  // 10M-body Plummer tree spans levels 2..15).
  int min_leaf_level = 99, max_leaf_level = 0;
  for (int leaf : tree.effective_leaves()) {
    if (tree.node(leaf).count == 0) continue;
    min_leaf_level = std::min(min_leaf_level, tree.node(leaf).level);
    max_leaf_level = std::max(max_leaf_level, tree.node(leaf).level);
  }
  EXPECT_GE(max_leaf_level - min_leaf_level, 4);
}

}  // namespace
}  // namespace afmm
