#include "expansion/laplace_derivs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace afmm {

namespace {

// Every value a rescalable run tracks must stay within [2^kMinExp,
// 2^kMaxExp]: one bit inside the normal range at the bottom, so a product
// whose rounded result clears 2^kMinExp was normal before rounding too.
constexpr int kMinExp = -1021;
constexpr int kMaxExp = 1023;

// floor(a / b) for b > 0.
int floor_div(int a, int b) { return a >= 0 ? a / b : -((b - 1 - a) / b); }

}  // namespace

LaplaceDerivatives::LaplaceDerivatives(MultiIndexSet set)
    : set_(std::move(set)) {}

const double* LaplaceDerivatives::recurrence(const Vec3& r) const {
  const int q = set_.max_order();
  const int n = set_.size();
  const double r2 = norm2(r);
  if (r2 == 0.0)
    throw std::domain_error("LaplaceDerivatives: r must be nonzero");

  // work[a][idx] = R^a_idx. Auxiliary order a runs 0..Q; we only ever need
  // R^a for indices of total order <= Q - a, but a rectangular layout keeps
  // the addressing trivial and the buffer is tiny (<= (Q+1) * |set|).
  thread_local std::vector<double> work;
  work.resize(static_cast<std::size_t>(q + 1) * n);

  // Base column: R^a_0 = (-1)^a (2a-1)!! / |r|^(2a+1).
  const double inv_r2 = 1.0 / r2;
  double base = 1.0 / std::sqrt(r2);  // a = 0: 1/|r|
  double dfact = 1.0;                 // (2a-1)!!
  for (int a = 0; a <= q; ++a) {
    work[static_cast<std::size_t>(a) * n] = base * dfact;
    base = -base * inv_r2;
    dfact *= static_cast<double>(2 * a + 1);
  }

  const double rv[3] = {r.x, r.y, r.z};
  for (int idx = 1; idx < n; ++idx) {
    const int o = set_.order(idx);
    const int d = set_.pred_dim(idx);
    const int i1 = set_.sub(idx, d);    // alpha - e_d
    const int i2 = set_.sub2(idx, d);   // alpha - 2 e_d (may be -1)
    const double ad = static_cast<double>(set_[idx][d] - 1);
    for (int a = 0; a <= q - o; ++a) {
      double v = rv[d] * work[static_cast<std::size_t>(a + 1) * n + i1];
      if (i2 >= 0) v += ad * work[static_cast<std::size_t>(a + 1) * n + i2];
      work[static_cast<std::size_t>(a) * n + idx] = v;
    }
  }
  return work.data();
}

void LaplaceDerivatives::evaluate(const Vec3& r, double* out) const {
  std::copy_n(recurrence(r), set_.size(), out);
}

int LaplaceDerivatives::evaluate_rescalable(const Vec3& k, double* out) const {
  const int q = set_.max_order();
  // Exponent span of k's nonzero components: |k_d| in [2^e_lo, 2^(e_hi+1)),
  // so |k| in [2^e_lo, 2^(e_hi+2)).
  int e_lo = std::numeric_limits<int>::max();
  int e_hi = std::numeric_limits<int>::min();
  for (int d = 0; d < 3; ++d) {
    if (!std::isfinite(k[d])) return -1;
    if (k[d] == 0.0) continue;
    e_lo = std::min(e_lo, std::ilogb(k[d]));
    e_hi = std::max(e_hi, std::ilogb(k[d]));
  }
  if (e_lo > e_hi) return -1;  // k = 0
  // At l = 0 the squares k_d^2, |k|^2 < 2^(2 e_hi + 4), its reciprocal and
  // the base column |k|^-(2a+1), a <= Q, must be normal. At level l the
  // squares shrink by 2^-2l; everything else grows.
  if (2 * e_lo < kMinExp || 2 * e_hi + 4 > -kMinExp ||
      -(2 * q + 1) * (e_hi + 2) - 1 < kMinExp)
    return -1;

  const double* work = recurrence(k);
  const int n = set_.size();
  std::copy_n(work, n, out);

  // Magnitude span of every R^a_idx the run produced (a + |idx| <= Q).
  double hi = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  for (int a = 0; a <= q; ++a) {
    const double* row = work + static_cast<std::size_t>(a) * n;
    for (int idx = 0; idx < MultiIndexSet::count(q - a); ++idx) {
      const double v = std::fabs(row[idx]);
      if (!(v <= std::numeric_limits<double>::max())) return -1;  // inf, NaN
      hi = std::max(hi, v);
      if (v != 0.0) lo = std::min(lo, v);
    }
  }
  // The products k_d R^{a+1} and a_d R^{a+1} of a step lie within
  // [2^min(e_lo, 0) lo, 2^max(e_hi + 1, bits(Q)) hi]; a value and the
  // products feeding it scale by the same 2^(l (2a+|idx|+1)) <= 2^(l (2Q+1)).
  // Lower side: only l = 0 can underflow.
  if (std::ilogb(lo) + std::min(e_lo, 0) < kMinExp) return -1;
  int qbits = 0;  // a_d <= Q - 1 < 2^qbits
  while ((1 << qbits) < q) ++qbits;
  const int e_max = std::ilogb(hi) + 1 + std::max({0, e_hi + 1, qbits});
  // Upper side, the squares k_d^2 2^-2l, and the factor 2^(l (Q+1)) that
  // rescale() multiplies by.
  const int limit = std::min({floor_div(kMaxExp - e_max, 2 * q + 1),
                              floor_div(2 * e_lo - kMinExp, 2),
                              kMaxExp / (q + 1)});
  return std::max(limit, -1);
}

void LaplaceDerivatives::rescale(const double* Tk, int level, bool reflect,
                                 double* out) const {
  // Order o takes f = s^o 2^(level (o+1)); the indices of one order are
  // consecutive in the graded set.
  const double step = std::ldexp(reflect ? -1.0 : 1.0, level);
  double f = std::ldexp(1.0, level);
  int idx = 0;
  for (int o = 0; o <= set_.max_order(); ++o, f *= step)
    for (const int end = MultiIndexSet::count(o); idx < end; ++idx)
      out[idx] = Tk[idx] * f;
}

}  // namespace afmm
