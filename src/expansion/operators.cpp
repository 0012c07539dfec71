#include "expansion/operators.hpp"

#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <string>

namespace afmm {

namespace {

// Runs before any member is sized from the order.
int checked_order(int order) {
  if (order < 1 || order > 16)
    throw std::invalid_argument(
        "ExpansionContext: FmmConfig::order must be in [1, 16], got " +
        std::to_string(order));
  return order;
}

// The operands of one M2L contraction: L[r * stride + beta] +=
// Ms[r * n + alpha] * T[sum[beta * n + alpha]] for every rhs r, beta, alpha.
struct M2LRows {
  const std::int32_t* sum;
  const double* T;
  const double* Ms;
  double* L;
  int n;
  std::ptrdiff_t stride;
};

// Contracts beta rows beta0 .. beta0+B-1 of rhs r0 .. r0+R-1: B*R register
// accumulators, each loaded from its L entry once, given its alpha terms in
// alpha order and stored once. Every L entry thus sees the same products
// added in the same order as a plain per-entry loop, so the result is
// bitwise the same; the B*R independent add chains hide the add latency,
// and the R rhs of a row share each T load. The unroll pragmas keep the
// accumulators in registers: GCC's -O2 does not fully unroll these
// constant-trip loops on its own.
template <int B, int R>
void contract(const M2LRows& m, int beta0, int r0) {
  const std::int32_t* row[B];
  const double* ms[R];
  double* l[R];
  double acc[B][R] = {};
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    ms[r] = m.Ms + static_cast<std::ptrdiff_t>(r0 + r) * m.n;
    l[r] = m.L + (r0 + r) * m.stride + beta0;
  }
#pragma GCC unroll 4
  for (int b = 0; b < B; ++b) {
    row[b] = m.sum + static_cast<std::ptrdiff_t>(beta0 + b) * m.n;
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) acc[b][r] = l[r][b];
  }
  for (int a = 0; a < m.n; ++a) {
#pragma GCC unroll 4
    for (int b = 0; b < B; ++b) {
      const double t = m.T[row[b][a]];
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) acc[b][r] += ms[r][a] * t;
    }
  }
#pragma GCC unroll 4
  for (int b = 0; b < B; ++b)
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) l[r][b] = acc[b][r];
}

}  // namespace

ExpansionContext::ExpansionContext(int order)
    : p_(checked_order(order)),
      set_p_(order),
      derivs_(MultiIndexSet(2 * order)) {

  const int n = set_p_.size();

  // Lower-triangular shift triples for M2M / L2L.
  for (int hi = 0; hi < n; ++hi) {
    const auto& b = set_p_[hi];
    for (int lo = 0; lo < n; ++lo) {
      const auto& a = set_p_[lo];
      if (a.i <= b.i && a.j <= b.j && a.k <= b.k) {
        const int shift = set_p_.find(b.i - a.i, b.j - a.j, b.k - a.k);
        triples_.push_back({hi, lo, shift});
      }
    }
  }

  // Dense M2L contraction rows, one per beta.
  m2l_sum_.reserve(static_cast<std::size_t>(n) * n);
  for (int beta = 0; beta < n; ++beta) {
    const auto& b = set_p_[beta];
    for (int alpha = 0; alpha < n; ++alpha) {
      const auto& a = set_p_[alpha];
      m2l_sum_.push_back(set_q().find(a.i + b.i, a.j + b.j, a.k + b.k));
    }
  }

  sign_.resize(n);
  lift_.resize(n);
  for (int d = 0; d < 3; ++d) lift_add_[d].resize(n);
  for (int idx = 0; idx < n; ++idx) {
    const auto& a = set_p_[idx];
    sign_[idx] = (a.order() % 2 == 0) ? 1.0 : -1.0;
    lift_[idx] = set_q().find(a.i, a.j, a.k);
    lift_add_[0][idx] = set_q().find(a.i + 1, a.j, a.k);
    lift_add_[1][idx] = set_q().find(a.i, a.j + 1, a.k);
    lift_add_[2][idx] = set_q().find(a.i, a.j, a.k + 1);
  }
}

void ExpansionContext::p2m(const Vec3& center, const Vec3* pos,
                           const double* charge, int count, double* M) const {
  const int n = ncoef();
  thread_local std::vector<double> t;
  t.resize(n);
  for (int i = 0; i < count; ++i) {
    const double v[3] = {pos[i].x - center.x, pos[i].y - center.y,
                         pos[i].z - center.z};
    set_p_.scaled_powers(v, t.data());
    const double q = charge[i];
    for (int a = 0; a < n; ++a) M[a] += q * t[a];
  }
}

PointValue ExpansionContext::l2p(const Vec3& center, const double* L,
                                 const Vec3& x) const {
  const int n = ncoef();
  thread_local std::vector<double> t;
  t.resize(n);
  const double v[3] = {x.x - center.x, x.y - center.y, x.z - center.z};
  set_p_.scaled_powers(v, t.data());

  PointValue out;
  for (int b = 0; b < n; ++b) {
    out.potential += L[b] * t[b];
    for (int d = 0; d < 3; ++d) {
      const int s = set_p_.sub(b, d);
      if (s >= 0) out.gradient[d] += L[b] * t[s];
    }
  }
  return out;
}

PointValue ExpansionContext::m2p(const Vec3& center, const double* M,
                                 const Vec3& x) const {
  const int n = ncoef();
  thread_local std::vector<double> T;
  T.resize(set_q().size());
  derivs_.evaluate(x - center, T.data());

  PointValue out;
  for (int a = 0; a < n; ++a) {
    const double m = sign_[a] * M[a];
    out.potential += m * T[lift_[a]];
    for (int d = 0; d < 3; ++d) out.gradient[d] += m * T[lift_add_[d][a]];
  }
  return out;
}

void ExpansionContext::m2m(const Vec3& from, const Vec3& to,
                           const double* Mchild, double* Mparent) const {
  thread_local std::vector<double> t;
  t.resize(ncoef());
  const double v[3] = {from.x - to.x, from.y - to.y, from.z - to.z};
  set_p_.scaled_powers(v, t.data());
  for (const auto& tr : triples_)
    Mparent[tr.hi] += Mchild[tr.lo] * t[tr.shift];
}

void ExpansionContext::m2l_multi(const Vec3& src, const Vec3& dst,
                                 const double* M, double* L, int nrhs,
                                 int stride) const {
  thread_local std::vector<double> T;
  T.resize(set_q().size());
  derivs_.evaluate(dst - src, T.data());
  m2l_contract(T.data(), M, L, nrhs, stride);
}

void ExpansionContext::m2l_contract(const double* T, const double* M,
                                    double* L, int nrhs, int stride) const {
  const int n = ncoef();
  thread_local std::vector<double> Ms;
  Ms.resize(static_cast<std::size_t>(n) * nrhs);
  for (int r = 0; r < nrhs; ++r) {
    const double* m = M + static_cast<std::ptrdiff_t>(r) * stride;
    for (int a = 0; a < n; ++a) Ms[r * n + a] = sign_[a] * m[a];
  }
  // Four independent chains per pass: the four rhs of one beta row while
  // four remain, then four beta rows of each remaining rhs.
  const M2LRows rows{m2l_sum_.data(), T, Ms.data(), L, n, stride};
  int r = 0;
  for (; r + 4 <= nrhs; r += 4)
    for (int beta = 0; beta < n; ++beta) contract<1, 4>(rows, beta, r);
  for (; r < nrhs; ++r) {
    int beta = 0;
    for (; beta + 4 <= n; beta += 4) contract<4, 1>(rows, beta, r);
    for (; beta < n; ++beta) contract<1, 1>(rows, beta, r);
  }
}

void ExpansionContext::l2l(const Vec3& from, const Vec3& to,
                           const double* Lparent, double* Lchild) const {
  thread_local std::vector<double> t;
  t.resize(ncoef());
  const double v[3] = {to.x - from.x, to.y - from.y, to.z - from.z};
  set_p_.scaled_powers(v, t.data());
  // L'_lo = sum_{hi >= lo} L_hi * t_{hi - lo}: the transpose of M2M.
  for (const auto& tr : triples_)
    Lchild[tr.lo] += Lparent[tr.hi] * t[tr.shift];
}

double ExpansionContext::reaggregated_monopole(const double* const* child_M,
                                               int num_children) const {
  // Exactly the fp operations the upsweep used for coefficient 0: the only
  // triple writing index 0 is (0,0,0) with scaled power exactly 1.0, so
  // Mparent[0] accumulated `+= Mchild[0] * 1.0` per child in child order.
  double m = 0.0;
  for (int c = 0; c < num_children; ++c) m += child_M[c][0];
  return m;
}

bool ExpansionContext::m2m_reaggregation_matches(
    const Vec3* child_centers, const double* const* child_M, int num_children,
    const Vec3& parent_center, const double* Mparent,
    std::vector<double>& scratch) const {
  scratch.assign(static_cast<std::size_t>(ncoef()), 0.0);
  for (int c = 0; c < num_children; ++c)
    m2m(child_centers[c], parent_center, child_M[c], scratch.data());
  return std::memcmp(scratch.data(), Mparent,
                     static_cast<std::size_t>(ncoef()) * sizeof(double)) == 0;
}

}  // namespace afmm
