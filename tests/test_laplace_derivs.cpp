#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "expansion/laplace_derivs.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

// Central finite difference of D^alpha(1/r) one more derivative deep.
double finite_diff(const MultiIndexSet& set, const LaplaceDerivatives& ld,
                   const Vec3& r, int idx_lower, int d, double h) {
  std::vector<double> plus(set.size()), minus(set.size());
  Vec3 rp = r, rm = r;
  rp[d] += h;
  rm[d] -= h;
  ld.evaluate(rp, plus.data());
  ld.evaluate(rm, minus.data());
  return (plus[idx_lower] - minus[idx_lower]) / (2.0 * h);
}

TEST(LaplaceDerivatives, ZeroOrderIsInverseDistance) {
  MultiIndexSet set(0);
  LaplaceDerivatives ld(set);
  double out[1];
  ld.evaluate({1, 2, 2}, out);
  EXPECT_DOUBLE_EQ(out[0], 1.0 / 3.0);
}

TEST(LaplaceDerivatives, FirstDerivativesAnalytic) {
  MultiIndexSet set(1);
  LaplaceDerivatives ld(set);
  Rng rng(3);
  std::vector<double> out(set.size());
  for (int trial = 0; trial < 30; ++trial) {
    const Vec3 r{rng.uniform(0.5, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)};
    ld.evaluate(r, out.data());
    const double r3 = std::pow(norm(r), 3);
    EXPECT_NEAR(out[set.find(1, 0, 0)], -r.x / r3, 1e-13);
    EXPECT_NEAR(out[set.find(0, 1, 0)], -r.y / r3, 1e-13);
    EXPECT_NEAR(out[set.find(0, 0, 1)], -r.z / r3, 1e-13);
  }
}

TEST(LaplaceDerivatives, SecondDerivativesAnalytic) {
  MultiIndexSet set(2);
  LaplaceDerivatives ld(set);
  const Vec3 r{0.7, -1.1, 0.4};
  std::vector<double> out(set.size());
  ld.evaluate(r, out.data());
  const double n = norm(r);
  const double r3 = n * n * n;
  const double r5 = r3 * n * n;
  EXPECT_NEAR(out[set.find(2, 0, 0)], 3 * r.x * r.x / r5 - 1 / r3, 1e-12);
  EXPECT_NEAR(out[set.find(0, 2, 0)], 3 * r.y * r.y / r5 - 1 / r3, 1e-12);
  EXPECT_NEAR(out[set.find(0, 0, 2)], 3 * r.z * r.z / r5 - 1 / r3, 1e-12);
  EXPECT_NEAR(out[set.find(1, 1, 0)], 3 * r.x * r.y / r5, 1e-12);
  EXPECT_NEAR(out[set.find(1, 0, 1)], 3 * r.x * r.z / r5, 1e-12);
  EXPECT_NEAR(out[set.find(0, 1, 1)], 3 * r.y * r.z / r5, 1e-12);
}

class LaplaceDerivativesOrder : public ::testing::TestWithParam<int> {};

TEST_P(LaplaceDerivativesOrder, MatchesFiniteDifferences) {
  const int q = GetParam();
  MultiIndexSet set(q);
  LaplaceDerivatives ld(set);
  Rng rng(q);
  std::vector<double> out(set.size());
  for (int trial = 0; trial < 5; ++trial) {
    const Vec3 r{rng.uniform(1.0, 2.0), rng.uniform(-2.0, -1.0),
                 rng.uniform(1.0, 2.0)};
    ld.evaluate(r, out.data());
    // Check each index of order >= 1 against a central difference of its
    // predecessor.
    for (int idx = 1; idx < set.size(); ++idx) {
      const int d = set.pred_dim(idx);
      const int lower = set.sub(idx, d);
      const double fd = finite_diff(set, ld, r, lower, d, 1e-5);
      const double scale = std::max(1.0, std::abs(out[idx]));
      EXPECT_NEAR(out[idx], fd, 2e-4 * scale)
          << "q=" << q << " idx=" << idx << " trial=" << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, LaplaceDerivativesOrder,
                         ::testing::Values(2, 3, 4, 5, 6));

class LaplaceHarmonicity : public ::testing::TestWithParam<int> {};

TEST_P(LaplaceHarmonicity, EveryDerivativeIsHarmonic) {
  // 1/r is harmonic away from the origin, hence so is every derivative:
  // T_{a+2ex} + T_{a+2ey} + T_{a+2ez} = 0 for all |a| <= Q-2.
  const int q = GetParam();
  MultiIndexSet set(q);
  LaplaceDerivatives ld(set);
  Rng rng(100 + q);
  std::vector<double> t(set.size());
  for (int trial = 0; trial < 10; ++trial) {
    const Vec3 r{rng.uniform(-2, 2), rng.uniform(0.3, 2), rng.uniform(-2, 2)};
    ld.evaluate(r, t.data());
    for (int idx = 0; idx < set.size(); ++idx) {
      const auto& a = set[idx];
      if (a.order() > q - 2) continue;
      const int xx = set.find(a.i + 2, a.j, a.k);
      const int yy = set.find(a.i, a.j + 2, a.k);
      const int zz = set.find(a.i, a.j, a.k + 2);
      const double lap = t[xx] + t[yy] + t[zz];
      const double scale =
          std::abs(t[xx]) + std::abs(t[yy]) + std::abs(t[zz]) + 1e-300;
      EXPECT_LT(std::abs(lap) / scale, 1e-10) << "q=" << q << " idx=" << idx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, LaplaceHarmonicity,
                         ::testing::Values(4, 6, 8, 10, 12));

TEST(LaplaceDerivatives, SymmetryUnderNegation) {
  // D^a(1/r)(-r) = (-1)^|a| D^a(1/r)(r).
  MultiIndexSet set(6);
  LaplaceDerivatives ld(set);
  std::vector<double> a(set.size()), b(set.size());
  const Vec3 r{0.9, -0.3, 1.4};
  ld.evaluate(r, a.data());
  ld.evaluate(-r, b.data());
  for (int idx = 0; idx < set.size(); ++idx) {
    const double sign = set.order(idx) % 2 == 0 ? 1.0 : -1.0;
    EXPECT_NEAR(b[idx], sign * a[idx],
                1e-12 * std::max(1.0, std::abs(a[idx])));
  }
}

TEST(LaplaceDerivatives, HomogeneityUnderScaling) {
  // D^a(1/r) is homogeneous of degree -(|a|+1): T(s r) = s^-(|a|+1) T(r).
  MultiIndexSet set(5);
  LaplaceDerivatives ld(set);
  std::vector<double> a(set.size()), b(set.size());
  const Vec3 r{1.1, 0.4, -0.8};
  const double s = 2.5;
  ld.evaluate(r, a.data());
  ld.evaluate(s * r, b.data());
  for (int idx = 0; idx < set.size(); ++idx) {
    const double expect = a[idx] * std::pow(s, -(set.order(idx) + 1));
    EXPECT_NEAR(b[idx], expect, 1e-12 * std::max(1.0, std::abs(expect)));
  }
}

TEST(LaplaceDerivatives, ThrowsAtOrigin) {
  MultiIndexSet set(2);
  LaplaceDerivatives ld(set);
  std::vector<double> out(set.size());
  EXPECT_THROW(ld.evaluate({0, 0, 0}, out.data()), std::domain_error);
}


bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

Vec3 ldexp(const Vec3& k, int e) {
  return {std::ldexp(k.x, e), std::ldexp(k.y, e), std::ldexp(k.z, e)};
}

TEST(LaplaceDerivatives, RescaleIsBitwiseExactWithinTheBound) {
  // T(2^-l k) = 2^(l(|a|+1)) T(k) and T(-k) = (-1)^|a| T(k), bit for bit,
  // for every level the bound admits. Keys are random (every component
  // nonzero, so no entry is an exact zero whose sign could flip) and, for
  // the scaling, lattice offsets like the far field's (multiples of the
  // root half, zero components included).
  Rng rng(7);
  for (int q : {2, 10, 16, 32}) {
    MultiIndexSet set(q);
    LaplaceDerivatives ld(set);
    std::vector<double> tk(set.size()), direct(set.size()), scaled(set.size());
    int checked = 0;
    for (int trial = 0; trial < 40; ++trial) {
      const bool lattice = trial % 2 == 1;
      Vec3 k;
      for (int d = 0; d < 3; ++d) {
        const double sign = rng.below(2) ? 1.0 : -1.0;
        k[d] = lattice ? 12.0 * static_cast<double>(rng.below(9)) - 48.0
                       : sign * rng.uniform(0.5, 64.0);
      }
      if (norm2(k) == 0.0) k.x = 12.0;
      const int l = static_cast<int>(rng.below(22));
      const int limit = ld.evaluate_rescalable(k, tk.data());
      ld.evaluate(k, direct.data());
      ASSERT_TRUE(same_bits(tk, direct)) << "q=" << q << " trial=" << trial;
      // The benchmark's orders and key scale are served at every depth.
      if (q <= 16) {
        EXPECT_GE(limit, 21) << "q=" << q << " trial=" << trial;
      }
      if (l > limit) continue;
      ++checked;
      ld.evaluate(ldexp(k, -l), direct.data());
      ld.rescale(tk.data(), l, false, scaled.data());
      EXPECT_TRUE(same_bits(direct, scaled))
          << "scale q=" << q << " l=" << l << " trial=" << trial;
      if (lattice) continue;
      ld.evaluate(-ldexp(k, -l), direct.data());
      ld.rescale(tk.data(), l, true, scaled.data());
      EXPECT_TRUE(same_bits(direct, scaled))
          << "reflect q=" << q << " l=" << l << " trial=" << trial;
    }
    EXPECT_GT(checked, 10) << "q=" << q;
  }
}

TEST(LaplaceDerivatives, RescaleBoundRejectsOutOfRangeKeys) {
  const double inf = std::numeric_limits<double>::infinity();
  {
    // Q = 32 at depth 21 with a key at the benchmark's scale: |R^32_0| ~
    // 63!! / |r|^65 overflows at r = 2^-21 k, so the direct tensor holds
    // infinities the rescaled one does not. The bound must stop short.
    MultiIndexSet set(32);
    LaplaceDerivatives ld(set);
    std::vector<double> tk(set.size()), direct(set.size()), scaled(set.size());
    const Vec3 k{24.0, -12.0, 36.0};
    const int limit = ld.evaluate_rescalable(k, tk.data());
    EXPECT_GE(limit, 0);
    EXPECT_LT(limit, 21);
    ld.evaluate(ldexp(k, -21), direct.data());
    ld.rescale(tk.data(), 21, false, scaled.data());
    EXPECT_FALSE(same_bits(direct, scaled));
  }
  MultiIndexSet set(10);
  LaplaceDerivatives ld(set);
  std::vector<double> tk(set.size());
  // k's own recurrence leaves the normal range: |k|^-21 overflows for tiny
  // keys and underflows for huge ones (the far field at root half 1e-150
  // and 1e150), or |k|^2 itself does.
  for (const Vec3& k :
       {Vec3{1e-150, 2e-150, 0.0}, Vec3{1e150, 0.0, -3e150},
        Vec3{0x1p-520, 1.0, 1.0}, Vec3{0x1p520, 1.0, 1.0},
        Vec3{0x1p60, 0x1p60, 0x1p60}})
    EXPECT_EQ(ld.evaluate_rescalable(k, tk.data()), -1) << k.x;
  // A tiny component whose square shrinks below 2^-1021 past level 10.
  EXPECT_LE(ld.evaluate_rescalable({0x1p-500, 24.0, 12.0}, tk.data()), 10);
  // Not a key at all.
  for (const Vec3& k : {Vec3{0.0, 0.0, 0.0}, Vec3{inf, 1.0, 1.0},
                        Vec3{std::nan(""), 1.0, 1.0}})
    EXPECT_EQ(ld.evaluate_rescalable(k, tk.data()), -1);
}

}  // namespace
}  // namespace afmm
