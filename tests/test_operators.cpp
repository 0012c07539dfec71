#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "expansion/operators.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

// A small random charge cluster inside a box around `center`.
struct Cluster {
  Vec3 center;
  std::vector<Vec3> pos;
  std::vector<double> q;
};

Cluster make_cluster(Rng& rng, const Vec3& center, double half, int n) {
  Cluster c;
  c.center = center;
  for (int i = 0; i < n; ++i) {
    c.pos.push_back(center + Vec3{rng.uniform(-half, half),
                                  rng.uniform(-half, half),
                                  rng.uniform(-half, half)});
    c.q.push_back(rng.uniform(-1.0, 1.0));
  }
  return c;
}

double direct_potential(const Cluster& c, const Vec3& x) {
  double pot = 0.0;
  for (std::size_t i = 0; i < c.pos.size(); ++i)
    pot += c.q[i] / norm(x - c.pos[i]);
  return pot;
}

Vec3 direct_gradient(const Cluster& c, const Vec3& x) {
  Vec3 g;
  for (std::size_t i = 0; i < c.pos.size(); ++i) {
    const Vec3 r = c.pos[i] - x;
    const double inv = 1.0 / norm(r);
    g += (c.q[i] * inv * inv * inv) * r;
  }
  return g;
}

class OperatorOrder : public ::testing::TestWithParam<int> {
 protected:
  int p() const { return GetParam(); }
};

TEST_P(OperatorOrder, P2MplusM2PApproximatesDirectPotential) {
  ExpansionContext ctx(p());
  Rng rng(17);
  const auto c = make_cluster(rng, {0, 0, 0}, 0.5, 40);
  std::vector<double> M(ctx.ncoef(), 0.0);
  ctx.p2m(c.center, c.pos.data(), c.q.data(), 40, M.data());

  double worst = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    // Evaluation points well separated: |x| >= 3 * box radius.
    Vec3 x{rng.uniform(2.0, 4.0), rng.uniform(2.0, 4.0),
           rng.uniform(2.0, 4.0)};
    const auto v = ctx.m2p(c.center, M.data(), x);
    const double exact = direct_potential(c, x);
    worst = std::max(worst, std::abs(v.potential - exact) /
                                std::max(1e-12, std::abs(exact)));
  }
  // Error ~ (r_box / d)^(p+1) with r_box/d <= sqrt(3)*0.5 / 3.46 ~ 0.25.
  EXPECT_LT(worst, 2.0 * std::pow(0.3, p() + 1)) << "p=" << p();
}

TEST_P(OperatorOrder, M2PGradientMatchesDirect) {
  ExpansionContext ctx(p());
  Rng rng(18);
  const auto c = make_cluster(rng, {0, 0, 0}, 0.4, 30);
  std::vector<double> M(ctx.ncoef(), 0.0);
  ctx.p2m(c.center, c.pos.data(), c.q.data(), 30, M.data());
  const Vec3 x{3.0, 2.5, -2.0};
  const auto v = ctx.m2p(c.center, M.data(), x);
  const Vec3 exact = direct_gradient(c, x);
  for (int d = 0; d < 3; ++d)
    EXPECT_NEAR(v.gradient[d], exact[d],
                std::pow(0.3, p()) * std::max(1.0, std::abs(exact[d])));
}

TEST_P(OperatorOrder, M2MPreservesFarPotential) {
  ExpansionContext ctx(p());
  Rng rng(19);
  const Vec3 child_center{0.25, 0.25, 0.25};
  const Vec3 parent_center{0, 0, 0};
  const auto c = make_cluster(rng, child_center, 0.25, 25);

  std::vector<double> Mc(ctx.ncoef(), 0.0), Mp(ctx.ncoef(), 0.0),
      Mdirect(ctx.ncoef(), 0.0);
  ctx.p2m(child_center, c.pos.data(), c.q.data(), 25, Mc.data());
  ctx.m2m(child_center, parent_center, Mc.data(), Mp.data());
  ctx.p2m(parent_center, c.pos.data(), c.q.data(), 25, Mdirect.data());

  // The shifted multipole must agree with the directly-formed one exactly
  // (both are polynomial identities, no truncation in M2M itself).
  for (int i = 0; i < ctx.ncoef(); ++i)
    EXPECT_NEAR(Mp[i], Mdirect[i], 1e-12 * std::max(1.0, std::abs(Mdirect[i])))
        << "coef " << i;
}

TEST_P(OperatorOrder, M2LplusL2PApproximatesDirect) {
  ExpansionContext ctx(p());
  Rng rng(20);
  const Vec3 src_center{0, 0, 0};
  const Vec3 dst_center{3, 0, 0};
  const auto c = make_cluster(rng, src_center, 0.4, 30);

  std::vector<double> M(ctx.ncoef(), 0.0), L(ctx.ncoef(), 0.0);
  ctx.p2m(src_center, c.pos.data(), c.q.data(), 30, M.data());
  ctx.m2l(src_center, dst_center, M.data(), L.data());

  double worst = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    const Vec3 x = dst_center + Vec3{rng.uniform(-0.4, 0.4),
                                     rng.uniform(-0.4, 0.4),
                                     rng.uniform(-0.4, 0.4)};
    const auto v = ctx.l2p(dst_center, L.data(), x);
    const double exact = direct_potential(c, x);
    worst = std::max(worst,
                     std::abs(v.potential - exact) / std::abs(exact));
  }
  EXPECT_LT(worst, 2.0 * std::pow(0.45, p() + 1)) << "p=" << p();
}

TEST_P(OperatorOrder, L2LPreservesLocalField) {
  ExpansionContext ctx(p());
  Rng rng(21);
  const Vec3 src_center{0, 0, 0};
  const Vec3 parent_center{3, 0, 0};
  const Vec3 child_center{3.2, 0.2, -0.2};
  const auto c = make_cluster(rng, src_center, 0.4, 30);

  std::vector<double> M(ctx.ncoef(), 0.0), Lp(ctx.ncoef(), 0.0),
      Lc(ctx.ncoef(), 0.0);
  ctx.p2m(src_center, c.pos.data(), c.q.data(), 30, M.data());
  ctx.m2l(src_center, parent_center, M.data(), Lp.data());
  ctx.l2l(parent_center, child_center, Lp.data(), Lc.data());

  // The shifted local expansion evaluated near the child center must agree
  // closely with the parent local evaluated at the same point: L2L is exact
  // up to dropping terms above order p.
  for (int trial = 0; trial < 10; ++trial) {
    const Vec3 x = child_center + Vec3{rng.uniform(-0.1, 0.1),
                                       rng.uniform(-0.1, 0.1),
                                       rng.uniform(-0.1, 0.1)};
    const auto vp = ctx.l2p(parent_center, Lp.data(), x);
    const auto vc = ctx.l2p(child_center, Lc.data(), x);
    EXPECT_NEAR(vc.potential, vp.potential,
                5e-2 * std::pow(0.5, p()) * std::abs(vp.potential));
  }
}

TEST_P(OperatorOrder, P2LMatchesM2LPathInTheFarLimit) {
  ExpansionContext ctx(p());
  Rng rng(22);
  const Vec3 src_center{0, 0, 0};
  const Vec3 dst_center{4, 1, 0};
  const auto c = make_cluster(rng, src_center, 0.3, 20);

  std::vector<double> Lp2l(ctx.ncoef(), 0.0);
  ctx.p2l(dst_center, c.pos.data(), c.q.data(), 20, Lp2l.data());

  // P2L is exact (no source truncation); compare its evaluation to direct.
  for (int trial = 0; trial < 10; ++trial) {
    const Vec3 x = dst_center + Vec3{rng.uniform(-0.3, 0.3),
                                     rng.uniform(-0.3, 0.3),
                                     rng.uniform(-0.3, 0.3)};
    const auto v = ctx.l2p(dst_center, Lp2l.data(), x);
    const double exact = direct_potential(c, x);
    EXPECT_NEAR(v.potential, exact, 2.0 * std::pow(0.2, p()) * std::abs(exact));
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, OperatorOrder, ::testing::Values(2, 3, 4, 6, 8));

TEST(Operators, L2PGradientMatchesFiniteDifference) {
  ExpansionContext ctx(5);
  Rng rng(23);
  const auto c = make_cluster(rng, {0, 0, 0}, 0.4, 20);
  const Vec3 dst{3, -1, 2};
  std::vector<double> M(ctx.ncoef(), 0.0), L(ctx.ncoef(), 0.0);
  ctx.p2m({0, 0, 0}, c.pos.data(), c.q.data(), 20, M.data());
  ctx.m2l({0, 0, 0}, dst, M.data(), L.data());

  const Vec3 x = dst + Vec3{0.1, -0.2, 0.15};
  const auto v = ctx.l2p(dst, L.data(), x);
  const double h = 1e-6;
  for (int d = 0; d < 3; ++d) {
    Vec3 xp = x, xm = x;
    xp[d] += h;
    xm[d] -= h;
    const double fd = (ctx.l2p(dst, L.data(), xp).potential -
                       ctx.l2p(dst, L.data(), xm).potential) /
                      (2 * h);
    EXPECT_NEAR(v.gradient[d], fd, 1e-6 * std::max(1.0, std::abs(fd)));
  }
}

TEST(Operators, M2LMultiMatchesRepeatedM2L) {
  ExpansionContext ctx(4);
  Rng rng(24);
  const int nc = ctx.ncoef();
  const int nrhs = 4;
  std::vector<double> M(nrhs * nc), L1(nrhs * nc, 0.0), L2(nrhs * nc, 0.0);
  for (auto& m : M) m = rng.uniform(-1, 1);
  const Vec3 src{0, 0, 0}, dst{2.5, 1.0, -0.5};
  for (int r = 0; r < nrhs; ++r)
    ctx.m2l(src, dst, M.data() + r * nc, L1.data() + r * nc);
  ctx.m2l_multi(src, dst, M.data(), L2.data(), nrhs, nc);
  for (int i = 0; i < nrhs * nc; ++i) EXPECT_DOUBLE_EQ(L1[i], L2[i]);
}

TEST(Operators, AccuracyImprovesMonotonicallyWithOrder) {
  Rng rng(25);
  const auto c = make_cluster(rng, {0, 0, 0}, 0.5, 50);
  const Vec3 x{3.5, 1.0, 2.0};
  const double exact = direct_potential(c, x);
  double prev_err = 1e9;
  for (int p : {2, 4, 6, 8}) {
    ExpansionContext ctx(p);
    std::vector<double> M(ctx.ncoef(), 0.0);
    ctx.p2m({0, 0, 0}, c.pos.data(), c.q.data(), 50, M.data());
    const double err =
        std::abs(ctx.m2p({0, 0, 0}, M.data(), x).potential - exact);
    EXPECT_LT(err, prev_err) << "p=" << p;
    prev_err = err;
  }
}

TEST(Operators, ZeroChargesGiveZeroExpansion) {
  ExpansionContext ctx(3);
  std::vector<Vec3> pos{{0.1, 0.2, 0.3}, {-0.1, 0, 0}};
  std::vector<double> q{0.0, 0.0};
  std::vector<double> M(ctx.ncoef(), 0.0);
  ctx.p2m({0, 0, 0}, pos.data(), q.data(), 2, M.data());
  for (double m : M) EXPECT_EQ(m, 0.0);
}

TEST(Operators, MonopoleTermIsTotalCharge) {
  ExpansionContext ctx(4);
  Rng rng(26);
  const auto c = make_cluster(rng, {0.5, 0.5, 0.5}, 0.3, 30);
  std::vector<double> M(ctx.ncoef(), 0.0);
  ctx.p2m(c.center, c.pos.data(), c.q.data(), 30, M.data());
  double total = 0.0;
  for (double q : c.q) total += q;
  EXPECT_NEAR(M[0], total, 1e-13);
}

TEST(Operators, M2MChainTwoHopsEqualsOneHop) {
  // Translation operators compose: shifting child -> mid -> root equals
  // shifting child -> root directly (both are exact polynomial identities).
  ExpansionContext ctx(5);
  Rng rng(27);
  const Vec3 child{0.25, 0.25, 0.25};
  const Vec3 mid{0.5, 0.0, 0.5};
  const Vec3 root{0, 0, 0};
  std::vector<double> M(ctx.ncoef());
  for (auto& m : M) m = rng.uniform(-1, 1);

  std::vector<double> via_mid(ctx.ncoef(), 0.0), at_mid(ctx.ncoef(), 0.0),
      direct(ctx.ncoef(), 0.0);
  ctx.m2m(child, mid, M.data(), at_mid.data());
  ctx.m2m(mid, root, at_mid.data(), via_mid.data());
  ctx.m2m(child, root, M.data(), direct.data());
  for (int i = 0; i < ctx.ncoef(); ++i)
    EXPECT_NEAR(via_mid[i], direct[i],
                1e-12 * std::max(1.0, std::abs(direct[i])));
}

TEST(Operators, L2LChainTwoHopsEqualsOneHop) {
  ExpansionContext ctx(5);
  Rng rng(28);
  const Vec3 root{0, 0, 0};
  const Vec3 mid{0.2, -0.1, 0.3};
  const Vec3 leaf{0.35, -0.2, 0.4};
  std::vector<double> L(ctx.ncoef());
  for (auto& l : L) l = rng.uniform(-1, 1);

  std::vector<double> via_mid(ctx.ncoef(), 0.0), at_mid(ctx.ncoef(), 0.0),
      direct(ctx.ncoef(), 0.0);
  ctx.l2l(root, mid, L.data(), at_mid.data());
  ctx.l2l(mid, leaf, at_mid.data(), via_mid.data());
  ctx.l2l(root, leaf, L.data(), direct.data());
  for (int i = 0; i < ctx.ncoef(); ++i)
    EXPECT_NEAR(via_mid[i], direct[i],
                1e-12 * std::max(1.0, std::abs(direct[i])));
}

TEST(Operators, NeutralClusterFieldDecaysFaster) {
  // A neutral cluster (zero monopole) has a far potential falling at least
  // like 1/r^2; the expansion must capture the cancellation.
  ExpansionContext ctx(6);
  Rng rng(29);
  auto c = make_cluster(rng, {0, 0, 0}, 0.4, 40);
  double sum = 0.0;
  for (double q : c.q) sum += q;
  c.q[0] -= sum;

  std::vector<double> M(ctx.ncoef(), 0.0);
  ctx.p2m({0, 0, 0}, c.pos.data(), c.q.data(), 40, M.data());
  EXPECT_NEAR(M[0], 0.0, 1e-13);

  const double p4 = std::abs(ctx.m2p({0, 0, 0}, M.data(), {4, 0, 0}).potential);
  const double p8 = std::abs(ctx.m2p({0, 0, 0}, M.data(), {8, 0, 0}).potential);
  // Dipole-or-higher decay: doubling r shrinks the potential by roughly 4x
  // asymptotically (monopole would only halve it); allow slack for the
  // quadrupole admixture at finite r.
  EXPECT_LT(p8, p4 / 3.0);
}

TEST(Operators, RejectsBadOrder) {
  for (const int order : {0, 17, -5}) {
    try {
      ExpansionContext ctx(order);
      ADD_FAILURE() << "order " << order << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "ExpansionContext: FmmConfig::order must be in [1, 16], got " +
                    std::to_string(order));
    }
  }
}

TEST(Operators, FlopCountsArePositiveAndGrowWithOrder) {
  ExpansionContext a(2), b(6);
  EXPECT_GT(a.flops_m2l(), 0.0);
  EXPECT_GT(b.flops_m2l(), a.flops_m2l());
  EXPECT_GT(b.flops_m2m(), a.flops_m2m());
  EXPECT_GT(b.flops_p2m_per_body(), a.flops_p2m_per_body());
}

}  // namespace
}  // namespace afmm
