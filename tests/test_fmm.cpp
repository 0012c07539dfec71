#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/fmm_solver.hpp"
#include "dist/distributions.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace afmm {
namespace {

TreeConfig unit_config(int S) {
  TreeConfig tc;
  tc.leaf_capacity = S;
  tc.root_center = {0.5, 0.5, 0.5};
  tc.root_half = 0.5;
  return tc;
}

NodeSimulator default_node(int gpus = 1) {
  return NodeSimulator(CpuModelConfig{}, GpuSystemConfig::uniform(gpus));
}

// Flatten potentials + gradients for error norms.
void flatten(const GravityResult& res, const std::vector<GravityAccum>& ref,
             std::vector<double>& a, std::vector<double>& b) {
  a.clear();
  b.clear();
  for (std::size_t i = 0; i < res.potential.size(); ++i) {
    a.push_back(res.potential[i]);
    b.push_back(ref[i].pot);
    for (int d = 0; d < 3; ++d) {
      a.push_back(res.gradient[i][d]);
      b.push_back(ref[i].grad[d]);
    }
  }
}

struct FmmCase {
  int order;
  int S;
  double max_err;
};

class FmmAccuracy : public ::testing::TestWithParam<FmmCase> {};

TEST_P(FmmAccuracy, UniformCloudMatchesDirect) {
  const auto [order, S, max_err] = GetParam();
  Rng rng(order * 100 + S);
  const int n = 1500;
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);
  std::vector<double> q(n);
  for (auto& v : q) v = rng.uniform(0.2, 1.8);

  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(S));

  FmmConfig cfg;
  cfg.order = order;
  GravitySolver solver(cfg, default_node());
  const auto res = solver.solve(tree, set.positions, q);
  const auto ref = gravity_direct_all(GravityKernel{}, set.positions, q);

  std::vector<double> a, b;
  flatten(res, ref, a, b);
  EXPECT_LT(rel_l2_error(a, b), max_err)
      << "order=" << order << " S=" << S;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FmmAccuracy,
    ::testing::Values(FmmCase{2, 20, 1e-2}, FmmCase{4, 20, 5e-4},
                      FmmCase{6, 20, 2e-5}, FmmCase{8, 20, 2e-6},
                      FmmCase{4, 5, 5e-4}, FmmCase{4, 100, 5e-4},
                      FmmCase{4, 2000, 1e-12}  // single leaf: pure direct
                      ));

TEST(Fmm, ErrorDecreasesMonotonicallyWithOrder) {
  Rng rng(31);
  const int n = 1200;
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(25));
  const auto ref = gravity_direct_all(GravityKernel{}, set.positions, set.masses);

  double prev = 1e9;
  for (int p : {2, 3, 4, 5, 6}) {
    FmmConfig cfg;
    cfg.order = p;
    GravitySolver solver(cfg, default_node());
    const auto res = solver.solve(tree, set.positions, set.masses);
    std::vector<double> a, b;
    flatten(res, ref, a, b);
    const double err = rel_l2_error(a, b);
    EXPECT_LT(err, prev) << "p=" << p;
    prev = err;
  }
}

TEST(Fmm, PlummerDistributionAccurate) {
  // The adaptive tree must stay accurate on the paper's highly non-uniform
  // test distribution.
  Rng rng(32);
  PlummerOptions opt;
  opt.scale_radius = 0.03;
  opt.center = {0.5, 0.5, 0.5};
  auto set = plummer(2000, rng, opt);
  AdaptiveOctree tree;
  auto tc = unit_config(20);
  tc = fit_cube(set.positions, tc);
  tree.build(set.positions, tc);
  EXPECT_GE(tree.effective_depth(), 5);  // strongly adaptive

  FmmConfig cfg;
  cfg.order = 6;
  GravitySolver solver(cfg, default_node());
  const auto res = solver.solve(tree, set.positions, set.masses);
  const auto ref = gravity_direct_all(GravityKernel{}, set.positions, set.masses);
  std::vector<double> a, b;
  flatten(res, ref, a, b);
  EXPECT_LT(rel_l2_error(a, b), 1e-4);
}

TEST(Fmm, CollapsedTreeStillCorrect) {
  // Collapse operations change the near/far split but not the answer.
  Rng rng(33);
  const int n = 1000;
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(16));

  FmmConfig cfg;
  cfg.order = 5;
  GravitySolver solver(cfg, default_node());
  const auto before = solver.solve(tree, set.positions, set.masses);

  int collapsed = 0;
  for (int id = 0; id < tree.num_nodes() && collapsed < 5; ++id) {
    if (tree.is_effective_leaf(id)) continue;
    bool bottom = true;
    for (int c : tree.node(id).children)
      if (!tree.is_effective_leaf(c)) bottom = false;
    if (bottom) {
      tree.collapse(id);
      ++collapsed;
    }
  }
  ASSERT_GT(collapsed, 0);
  const auto after = solver.solve(tree, set.positions, set.masses);
  EXPECT_GT(after.stats.p2p_interactions, before.stats.p2p_interactions);

  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(after.potential[i], before.potential[i],
                5e-4 * std::abs(before.potential[i]));
}

TEST(Fmm, UniformTreeMatchesAdaptiveAnswers) {
  Rng rng(34);
  const int n = 1200;
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);

  FmmConfig cfg;
  cfg.order = 5;
  GravitySolver solver(cfg, default_node());

  AdaptiveOctree adaptive;
  adaptive.build(set.positions, unit_config(20));
  AdaptiveOctree uniform;
  uniform.build_uniform(set.positions, unit_config(20), 2);

  const auto ra = solver.solve(adaptive, set.positions, set.masses);
  const auto ru = solver.solve(uniform, set.positions, set.masses);
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(ra.potential[i], ru.potential[i],
                1e-3 * std::abs(ra.potential[i]));
}

TEST(Fmm, GradientIsNegativeOfForceSymmetry) {
  // Newton's third law: sum of m_i * G * grad phi_i vanishes.
  Rng rng(35);
  const int n = 800;
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(20));
  FmmConfig cfg;
  cfg.order = 8;
  GravitySolver solver(cfg, default_node());
  const auto res = solver.solve(tree, set.positions, set.masses);

  Vec3 total;
  double scale = 0.0;
  for (int i = 0; i < n; ++i) {
    total += set.masses[i] * res.gradient[i];
    scale += set.masses[i] * norm(res.gradient[i]);
  }
  EXPECT_LT(norm(total) / scale, 1e-4);
}

TEST(Fmm, TwoBodiesExact) {
  std::vector<Vec3> pos{{0.2, 0.2, 0.2}, {0.8, 0.8, 0.8}};
  std::vector<double> q{2.0, 3.0};
  AdaptiveOctree tree;
  tree.build(pos, unit_config(1));
  FmmConfig cfg;
  cfg.order = 4;
  GravitySolver solver(cfg, default_node());
  const auto res = solver.solve(tree, pos, q);
  const double d = norm(pos[1] - pos[0]);
  EXPECT_NEAR(res.potential[0], 3.0 / d, 2e-2 * (3.0 / d));
  EXPECT_NEAR(res.potential[1], 2.0 / d, 2e-2 * (2.0 / d));
}

TEST(Fmm, SingleBodyIsZero) {
  std::vector<Vec3> pos{{0.5, 0.5, 0.5}};
  std::vector<double> q{1.0};
  AdaptiveOctree tree;
  tree.build(pos, unit_config(8));
  FmmConfig cfg;
  cfg.order = 3;
  GravitySolver solver(cfg, default_node());
  const auto res = solver.solve(tree, pos, q);
  EXPECT_EQ(res.potential[0], 0.0);
  EXPECT_EQ(res.gradient[0], Vec3{});
}

TEST(Fmm, SofteningChangesOnlyNearField) {
  Rng rng(36);
  const int n = 600;
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(30));
  FmmConfig cfg;
  cfg.order = 5;
  GravitySolver plain(cfg, default_node(), GravityKernel(0.0));
  GravitySolver soft(cfg, default_node(), GravityKernel(1e-3));
  const auto a = plain.solve(tree, set.positions, set.masses);
  const auto b = soft.solve(tree, set.positions, set.masses);
  const auto ref = gravity_direct_all(GravityKernel(1e-3), set.positions,
                                      set.masses);
  double max_rel = 0.0;
  for (int i = 0; i < n; ++i)
    max_rel = std::max(max_rel, std::abs(b.potential[i] - ref[i].pot) /
                                    std::abs(ref[i].pot));
  EXPECT_LT(max_rel, 5e-3);
  // And softened differs from unsoftened (it did something).
  double diff = 0.0;
  for (int i = 0; i < n; ++i) diff += std::abs(a.potential[i] - b.potential[i]);
  EXPECT_GT(diff, 0.0);
}

TEST(GravityKernel, RejectsNegativeOrNonFiniteSoftening) {
  // A negative softening used to be squared silently into a positive one.
  for (double eps : {-1e-3, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()})
    EXPECT_THROW(GravityKernel{eps}, std::invalid_argument) << eps;
  try {
    GravityKernel{-0.25};
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("softening"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-0.25"), std::string::npos);
  }
  EXPECT_EQ(GravityKernel(0.0).softening2(), 0.0);
  EXPECT_EQ(GravityKernel(0.5).softening2(), 0.25);
}

TEST(Fmm, TimesAndStatsPopulated) {
  Rng rng(37);
  auto set = uniform_cube(3000, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(40));
  FmmConfig cfg;
  cfg.order = 4;
  GravitySolver solver(cfg, default_node(2));
  const auto res = solver.solve(tree, set.positions, set.masses);
  EXPECT_GT(res.times.cpu_seconds, 0.0);
  EXPECT_GT(res.times.gpu_seconds, 0.0);
  EXPECT_EQ(res.times.compute_seconds(),
            std::max(res.times.cpu_seconds, res.times.gpu_seconds));
  EXPECT_GT(res.stats.nodes, 0);
  EXPECT_GT(res.stats.m2l_pairs, 0u);
  EXPECT_EQ(res.gpu.per_gpu.size(), 2u);
}

TEST(Fmm, TransferTimelineIsPopulatedAndConsistent) {
  // Section III.D: launch -> (CPU || upload+kernel) -> blocking gather.
  Rng rng(41);
  auto set = uniform_cube(4000, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(40));
  FmmConfig cfg;
  cfg.order = 4;
  GravitySolver solver(cfg, default_node(2));
  const auto res = solver.solve(tree, set.positions, set.masses);

  const auto& tl = res.gpu.timeline;
  EXPECT_GT(tl.launch_seconds, 0.0);
  EXPECT_GT(tl.download_seconds, 0.0);
  // Kernel completion includes the upload, so it can't be earlier than the
  // pure kernel time.
  EXPECT_GE(tl.gpu_done_seconds, res.gpu.max_kernel_seconds);
  // The full step is at least the paper's Compute Time.
  EXPECT_GE(tl.step_seconds(res.times.cpu_seconds),
            res.times.compute_seconds());
}

TEST(Fmm, GpuTimeShrinksRelativeToSerialDirectWork) {
  // The headline effect of the heterogeneous design: offloaded direct work
  // runs far faster on the GPU system than the serial CPU baseline would
  // run it.
  Rng rng(42);
  auto set = uniform_cube(8000, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(64));
  FmmConfig cfg;
  cfg.order = 4;
  GravitySolver solver(cfg, default_node(4));
  const auto res = solver.solve(tree, set.positions, set.masses);

  const auto& cpu = solver.node().cpu();
  const double serial_direct = cpu.task_seconds(
      static_cast<double>(res.stats.p2p_interactions) * cpu.p2p_flops, 1);
  EXPECT_LT(res.times.gpu_seconds, serial_direct / 10.0);
}

TEST(Fmm, SolveRejectsMismatchedInputs) {
  Rng rng(38);
  auto set = uniform_cube(100, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(10));
  FmmConfig cfg;
  GravitySolver solver(cfg, default_node());
  std::vector<double> bad(50, 1.0);
  EXPECT_THROW(solver.solve(tree, set.positions, bad), std::invalid_argument);
}

TEST(Fmm, MixedSignChargesAccurate) {
  // Electrostatics-style workload: charges of both signs, where monopole
  // terms largely cancel and the higher multipoles carry the field -- a
  // stress test for the expansion accuracy that gravity (all-positive
  // charges) never exercises.
  Rng rng(45);
  const int n = 1500;
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);
  std::vector<double> q(n);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    q[i] = rng.uniform(-1.0, 1.0);
    sum += q[i];
  }
  q[0] -= sum;  // exactly neutral overall

  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(25));
  FmmConfig cfg;
  cfg.order = 7;
  GravitySolver solver(cfg, default_node());
  const auto res = solver.solve(tree, set.positions, q);
  const auto ref = gravity_direct_all(GravityKernel{}, set.positions, q);
  std::vector<double> a, b;
  flatten(res, ref, a, b);
  EXPECT_LT(rel_l2_error(a, b), 5e-5);
}

TEST(Fmm, AccuracyHoldsAcrossThetaRange) {
  Rng rng(46);
  const int n = 1000;
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(20));
  const auto ref = gravity_direct_all(GravityKernel{}, set.positions,
                                      set.masses);
  double prev_err = -1.0;
  for (double theta : {0.75, 0.55, 0.35}) {
    FmmConfig cfg;
    cfg.order = 5;
    cfg.traversal.theta = theta;
    GravitySolver solver(cfg, default_node());
    const auto res = solver.solve(tree, set.positions, set.masses);
    std::vector<double> a, b;
    flatten(res, ref, a, b);
    const double err = rel_l2_error(a, b);
    if (prev_err >= 0.0) {
      EXPECT_LT(err, prev_err) << "theta=" << theta;
    }
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-5);  // theta = 0.35, p = 5
}

TEST(Fmm, DeterministicAcrossRuns) {
  Rng rng(39);
  auto set = uniform_cube(800, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(25));
  FmmConfig cfg;
  cfg.order = 5;
  GravitySolver solver(cfg, default_node());
  const auto a = solver.solve(tree, set.positions, set.masses);
  const auto b = solver.solve(tree, set.positions, set.masses);
  for (std::size_t i = 0; i < a.potential.size(); ++i)
    EXPECT_EQ(a.potential[i], b.potential[i]);
}


// Plummer bodies (radii up to 10 around the origin) scaled into a root cube
// of half `root_half`, plus tight clusters that take the adaptive tree to
// its depth cap of 21.
void build_deep_plummer(double root_half, int seed, AdaptiveOctree& tree) {
  Rng rng(50 + seed);
  const double s = root_half / 12.0;
  std::vector<Vec3> pos;
  for (const Vec3& p : plummer(500, rng).positions) pos.push_back(p * s);
  for (int c = 0; c < 4; ++c)
    for (int i = 1; i <= 4; ++i)
      pos.push_back(pos[c] + Vec3{3e-7 * i, -2e-7 * i, 1e-7 * i} * s);
  TreeConfig tc;
  tc.leaf_capacity = 3;
  tc.max_depth = 21;
  tc.root_center = {0.0, 0.0, 0.0};
  tc.root_half = root_half;
  tree.build(pos, tc);
}

std::vector<std::vector<double>> random_charges(std::size_t n, int nrhs,
                                                Rng& rng) {
  std::vector<std::vector<double>> q(nrhs, std::vector<double>(n));
  for (auto& rhs : q)
    for (double& v : rhs) v = rng.uniform(-1.0, 2.0);
  return q;
}

bool same_bits(const std::vector<std::vector<PointValue>>& a,
               const std::vector<std::vector<PointValue>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (std::size_t i = 0; i < a[r].size(); ++i) {
      const double x[4] = {a[r][i].potential, a[r][i].gradient.x,
                           a[r][i].gradient.y, a[r][i].gradient.z};
      const double y[4] = {b[r][i].potential, b[r][i].gradient.x,
                           b[r][i].gradient.y, b[r][i].gradient.z};
      if (std::memcmp(x, y, sizeof(x)) != 0) return false;
    }
  }
  return true;
}

// The far field with its own derivative tensor per M2L pair
// (ExpansionContext::m2l_multi), in one serial recursive pass that applies
// every operator in HarmonicFarField's order: the reference the shared
// tensor table must match bit for bit.
std::vector<std::vector<PointValue>> far_field_per_pair(
    const ExpansionContext& ctx, const AdaptiveOctree& tree,
    const InteractionLists& lists, const std::vector<std::vector<double>>& q) {
  const int nrhs = static_cast<int>(q.size());
  const int nc = ctx.ncoef();
  const std::size_t per_node = static_cast<std::size_t>(nrhs) * nc;
  std::vector<double> M(per_node * tree.num_nodes(), 0.0);
  std::vector<double> L(M.size(), 0.0);
  auto mc = [&](int id, int r) { return M.data() + per_node * id + r * nc; };
  auto lc = [&](int id, int r) { return L.data() + per_node * id + r * nc; };
  const auto pos = tree.sorted_positions();
  std::vector<std::vector<PointValue>> out(
      nrhs, std::vector<PointValue>(tree.num_bodies()));

  auto up = [&](auto&& self, int id) -> void {
    const OctreeNode& n = tree.node(id);
    if (n.count == 0) return;
    if (tree.is_effective_leaf(id)) {
      for (int r = 0; r < nrhs; ++r)
        ctx.p2m(n.center, pos.data() + n.begin, q[r].data() + n.begin,
                static_cast<int>(n.count), mc(id, r));
      return;
    }
    for (int c : n.children) self(self, c);
    for (int c : n.children) {
      if (tree.node(c).count == 0) continue;
      for (int r = 0; r < nrhs; ++r)
        ctx.m2m(tree.node(c).center, n.center, mc(c, r), mc(id, r));
    }
  };
  auto down = [&](auto&& self, int id) -> void {
    const OctreeNode& n = tree.node(id);
    if (n.count == 0) return;
    for (auto e = lists.m2l_offset[id]; e < lists.m2l_offset[id + 1]; ++e) {
      const int src = lists.m2l_sources[e];
      ctx.m2l_multi(tree.node(src).center, n.center, mc(src, 0), lc(id, 0),
                    nrhs, nc);
    }
    if (n.parent >= 0)
      for (int r = 0; r < nrhs; ++r)
        ctx.l2l(tree.node(n.parent).center, n.center, lc(n.parent, r),
                lc(id, r));
    if (tree.is_effective_leaf(id)) {
      for (auto b = n.begin; b < n.begin + n.count; ++b)
        for (int r = 0; r < nrhs; ++r)
          out[r][b] = ctx.l2p(n.center, lc(id, r), pos[b]);
      return;
    }
    for (int c : n.children) self(self, c);
  };
  up(up, tree.root());
  down(down, tree.root());
  return out;
}

TEST(Fmm, FarFieldIndependentOfThreadCount) {
  // M2L runs as a dynamically scheduled loop over target nodes; each L
  // must still get its terms in list order whichever thread runs it.
  struct ThreadCountGuard {
    int saved = omp_get_max_threads();
    ~ThreadCountGuard() { omp_set_num_threads(saved); }
  } guard;

  AdaptiveOctree tree;
  build_deep_plummer(12.0, 0, tree);
  ASSERT_GE(tree.effective_depth(), 18);
  const auto lists = build_interaction_lists(tree);
  HarmonicFarField far(FmmConfig{});
  Rng rng(60);
  for (int nrhs : {1, 4}) {  // gravity; the four Stokeslet passes
    const auto q = random_charges(tree.num_bodies(), nrhs, rng);
    std::vector<std::vector<PointValue>> ref, out;
    omp_set_num_threads(1);
    far.evaluate(tree, lists, q, ref);
    for (int threads : {2, 4}) {
      omp_set_num_threads(threads);
      far.evaluate(tree, lists, q, out);
      EXPECT_TRUE(same_bits(ref, out))
          << "nrhs=" << nrhs << " threads=" << threads;
    }
  }
}

TEST(Fmm, FarFieldTensorTableMatchesPerPairEvaluate) {
  // The shared tensors are rescaled copies; every pair must still get the
  // bits of its own evaluate(). At root half 12 (the benchmark's scale) the
  // table serves the pairs with |level difference| <= 1; at 1e-150 and
  // 1e150 the keys' recurrences leave the normal range, so every pair
  // takes the fallback.
  Rng rng(61);
  for (const double root_half : {12.0, 1e-150, 1e150}) {
    for (int order : {3, 5, 8}) {
      if (root_half != 12.0 && order != 5) continue;
      AdaptiveOctree tree;
      build_deep_plummer(root_half, order, tree);
      const auto lists = build_interaction_lists(tree);
      FmmConfig cfg;
      cfg.order = order;
      HarmonicFarField far(cfg);
      for (int nrhs : {1, 4}) {
        const auto q = random_charges(tree.num_bodies(), nrhs, rng);
        std::vector<std::vector<PointValue>> out;
        far.evaluate(tree, lists, q, out);
        EXPECT_TRUE(
            same_bits(out, far_field_per_pair(far.context(), tree, lists, q)))
            << "root_half=" << root_half << " p=" << order
            << " nrhs=" << nrhs;
      }
    }
  }
}

TEST(Fmm, FarFieldRejectsListsOfAnotherTree) {
  Rng rng(62);
  auto set = uniform_cube(300, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree fine, coarse;
  fine.build(set.positions, unit_config(8));
  coarse.build(set.positions, unit_config(60));
  ASSERT_NE(fine.num_nodes(), coarse.num_nodes());
  const auto q = random_charges(set.positions.size(), 1, rng);
  HarmonicFarField far(FmmConfig{});
  std::vector<std::vector<PointValue>> out;
  try {
    far.evaluate(coarse, build_interaction_lists(fine), q, out);
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("m2l_offset"), std::string::npos)
        << e.what();
  }

  // A pair at zero offset (the root with itself) reaches the caller as
  // evaluate()'s domain_error rather than aborting in the parallel region.
  InteractionLists self;
  self.m2l_offset.assign(fine.num_nodes() + 1, 1);
  self.m2l_offset[fine.root()] = 0;
  for (int id = 0; id < fine.root(); ++id) self.m2l_offset[id] = 0;
  self.m2l_sources = {fine.root()};
  EXPECT_THROW(far.evaluate(fine, self, q, out), std::domain_error);
}

}  // namespace
}  // namespace afmm
