#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/fmm_solver.hpp"
#include "dist/distributions.hpp"
#include "kernels/stokeslet.hpp"
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

NodeSimulator default_node() {
  return NodeSimulator(CpuModelConfig{}, GpuSystemConfig::uniform(1));
}

TEST(StokesletKernel, RegularizedFiniteAtZero) {
  StokesletKernel k(0.1);
  StokesletAccum a;
  k.accumulate({1, 1, 1}, 0, {{1, 1, 1}, {1, 0, 0}}, 1, a);
  // Self-distance: u = f * 2 eps^2 / eps^3 = 2 f / eps.
  EXPECT_NEAR(a.u.x, 2.0 / 0.1, 1e-12);
  EXPECT_NEAR(a.u.y, 0.0, 1e-15);
}

TEST(StokesletKernel, ApproachesSingularFormAtDistance) {
  StokesletKernel k(1e-4);
  StokesletAccum a;
  const Vec3 x{1, 0, 0};
  const Vec3 y{0, 0, 0};
  const Vec3 f{0.3, -0.7, 0.2};
  k.accumulate(x, 0, {y, f}, 1, a);
  const Vec3 r = x - y;
  const Vec3 expect = f / norm(r) + (dot(r, f) / std::pow(norm(r), 3)) * r;
  EXPECT_NEAR(a.u.x, expect.x, 1e-6);
  EXPECT_NEAR(a.u.y, expect.y, 1e-6);
  EXPECT_NEAR(a.u.z, expect.z, 1e-6);
}

TEST(StokesletKernel, LinearInForce) {
  StokesletKernel k(0.01);
  StokesletAccum a1, a2;
  const Vec3 x{0.4, 0.2, 0.9};
  const Vec3 y{0.1, 0.1, 0.1};
  const Vec3 f{0.5, 0.5, -1.0};
  k.accumulate(x, 0, {y, f}, 1, a1);
  k.accumulate(x, 0, {y, 2.0 * f}, 1, a2);
  EXPECT_NEAR(a2.u.x, 2 * a1.u.x, 1e-14);
  EXPECT_NEAR(a2.u.y, 2 * a1.u.y, 1e-14);
  EXPECT_NEAR(a2.u.z, 2 * a1.u.z, 1e-14);
}

TEST(StokesletDecomposition, HarmonicIdentityMatchesSingularSum) {
  // Verifies u_i = phi_i - x_j d_i phi_j + d_i chi by brute force: compute
  // the four harmonic fields directly and compare against the singular
  // Stokeslet sum at well-separated targets.
  Rng rng(41);
  const int n = 50;
  std::vector<Vec3> src, f;
  for (int i = 0; i < n; ++i) {
    src.push_back({rng.uniform(0, 0.3), rng.uniform(0, 0.3),
                   rng.uniform(0, 0.3)});
    f.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)});
  }
  for (int trial = 0; trial < 10; ++trial) {
    const Vec3 x{rng.uniform(1, 2), rng.uniform(1, 2), rng.uniform(1, 2)};

    double phi[3] = {0, 0, 0};
    Vec3 grad_phi[3];
    Vec3 chi_grad;
    for (int i = 0; i < n; ++i) {
      const Vec3 r = x - src[i];
      const double inv = 1.0 / norm(r);
      const double inv3 = inv * inv * inv;
      for (int kcomp = 0; kcomp < 3; ++kcomp) {
        phi[kcomp] += f[i][kcomp] * inv;
        grad_phi[kcomp] += f[i][kcomp] * (-inv3) * r;
      }
      chi_grad += dot(src[i], f[i]) * (-inv3) * r;
    }
    const Vec3 u = combine_harmonic_passes(x, phi, grad_phi, chi_grad);

    Vec3 expect;
    for (int i = 0; i < n; ++i) {
      const Vec3 r = x - src[i];
      const double inv = 1.0 / norm(r);
      const double inv3 = inv * inv * inv;
      expect += inv * f[i] + (dot(r, f[i]) * inv3) * r;
    }
    EXPECT_NEAR(u.x, expect.x, 1e-10 * std::max(1.0, std::abs(expect.x)));
    EXPECT_NEAR(u.y, expect.y, 1e-10 * std::max(1.0, std::abs(expect.y)));
    EXPECT_NEAR(u.z, expect.z, 1e-10 * std::max(1.0, std::abs(expect.z)));
  }
}

class StokesletFmmOrder : public ::testing::TestWithParam<int> {};

TEST_P(StokesletFmmOrder, FmmMatchesRegularizedDirect) {
  const int p = GetParam();
  Rng rng(42 + p);
  const int n = 800;
  const double eps = 1e-4;  // tiny blob: far field (singular) stays accurate
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);
  std::vector<Vec3> forces(n);
  for (auto& v : forces)
    v = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};

  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(25));

  FmmConfig cfg;
  cfg.order = p;
  StokesletSolver solver(cfg, default_node(), eps);
  const auto res = solver.solve(tree, set.positions, forces);
  const auto ref =
      stokeslet_direct_all(StokesletKernel(eps), set.positions, forces);

  std::vector<double> a, b;
  for (int i = 0; i < n; ++i)
    for (int d = 0; d < 3; ++d) {
      a.push_back(res.velocity[i][d]);
      b.push_back(ref[i].u[d]);
    }
  const double tol = (p <= 3) ? 2e-2 : (p <= 5 ? 2e-3 : 5e-4);
  EXPECT_LT(rel_l2_error(a, b), tol) << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Orders, StokesletFmmOrder, ::testing::Values(3, 5, 7));

TEST(StokesletFmm, FourRhsCostFactorVisible) {
  // The solver's far-field time must reflect the ~4x M2L cost the paper
  // reports for the fluid problem.
  Rng rng(44);
  const int n = 2000;
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);
  std::vector<Vec3> forces(n, Vec3{1, 0, 0});

  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(30));

  FmmConfig cfg;
  cfg.order = 4;
  StokesletSolver stokes(cfg, default_node(), 1e-3);
  GravitySolver grav(cfg, default_node());
  const auto rs = stokes.solve(tree, set.positions, forces);
  const auto rg = grav.solve(tree, set.positions, set.masses);
  EXPECT_NEAR(rs.times.t_m2l / rg.times.t_m2l, 4.0, 0.01);
}

TEST(StokesletFmm, HelicalFiberVelocitiesMatchDirect) {
  // The immersed-flexible-boundary scenario: points along a helix driven by
  // tangential forces.
  std::vector<Vec3> forces;
  auto pos = helical_fiber(600, 0.1, 0.05, 4.0, forces);
  // Shift into the unit cube.
  for (auto& p : pos) p += Vec3{0.5, 0.5, 0.3};

  AdaptiveOctree tree;
  auto tc = fit_cube(pos, unit_config(20));
  tree.build(pos, tc);

  FmmConfig cfg;
  cfg.order = 6;
  const double eps = 5e-4;
  StokesletSolver solver(cfg, default_node(), eps);
  const auto res = solver.solve(tree, pos, forces);
  const auto ref = stokeslet_direct_all(StokesletKernel(eps), pos, forces);

  std::vector<double> a, b;
  for (std::size_t i = 0; i < pos.size(); ++i)
    for (int d = 0; d < 3; ++d) {
      a.push_back(res.velocity[i][d]);
      b.push_back(ref[i].u[d]);
    }
  EXPECT_LT(rel_l2_error(a, b), 5e-3);
}

TEST(StokesletDirect, SingularSkipsSelfPairs) {
  std::vector<Vec3> pos{{0, 0, 0}, {1, 0, 0}};
  std::vector<Vec3> f{{1, 0, 0}, {0, 0, 0}};
  const auto out = stokeslet_singular_direct_all(pos, f);
  // Target 1 sees source 0 at distance 1 with force along the separation:
  // u = f/r + r (r.f)/r^3 = (1,0,0) + (1,0,0) = (2,0,0).
  EXPECT_NEAR(out[1].u.x, 2.0, 1e-14);
  EXPECT_NEAR(out[0].u.x, 0.0, 1e-14);  // zero-force source, self skipped
}

TEST(StokesletKernel, RejectsNonPositiveOrNonFiniteEpsilon) {
  // Self terms are kept, so eps = 0 would put inf into every velocity.
  for (double eps : {0.0, -0.1, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()})
    EXPECT_THROW(StokesletKernel{eps}, std::invalid_argument) << eps;
  try {
    StokesletKernel{-0.1};
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("epsilon"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-0.1"), std::string::npos);
  }
  EXPECT_EQ(StokesletKernel(0.5).epsilon2(), 0.25);
}

TEST(StokesletDirect, SizesChecked) {
  std::vector<Vec3> pos(3), f(2);
  EXPECT_THROW(stokeslet_direct_all(StokesletKernel(0.1), pos, f),
               std::invalid_argument);
  EXPECT_THROW(stokeslet_singular_direct_all(pos, f), std::invalid_argument);
}

}  // namespace
}  // namespace afmm
