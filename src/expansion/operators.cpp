#include "expansion/operators.hpp"

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

}  // namespace

ExpansionContext::ExpansionContext(int order)
    : p_(checked_order(order)),
      set_p_(order),
      set_q_(2 * order >= order + 1 ? 2 * order : order + 1),
      derivs_(set_q_) {

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

  // Dense M2L contraction table.
  m2l_pairs_.reserve(static_cast<std::size_t>(n) * n);
  for (int beta = 0; beta < n; ++beta) {
    const auto& b = set_p_[beta];
    for (int alpha = 0; alpha < n; ++alpha) {
      const auto& a = set_p_[alpha];
      const int sum = set_q_.find(a.i + b.i, a.j + b.j, a.k + b.k);
      m2l_pairs_.push_back({beta, alpha, sum});
    }
  }

  sign_.resize(n);
  lift_.resize(n);
  for (int d = 0; d < 3; ++d) lift_add_[d].resize(n);
  for (int idx = 0; idx < n; ++idx) {
    const auto& a = set_p_[idx];
    sign_[idx] = (a.order() % 2 == 0) ? 1.0 : -1.0;
    lift_[idx] = set_q_.find(a.i, a.j, a.k);
    lift_add_[0][idx] = set_q_.find(a.i + 1, a.j, a.k);
    lift_add_[1][idx] = set_q_.find(a.i, a.j + 1, a.k);
    lift_add_[2][idx] = set_q_.find(a.i, a.j, a.k + 1);
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

void ExpansionContext::p2l(const Vec3& center, const Vec3* pos,
                           const double* charge, int count, double* L) const {
  const int n = ncoef();
  thread_local std::vector<double> T;
  T.resize(set_q_.size());
  for (int i = 0; i < count; ++i) {
    derivs_.evaluate(center - pos[i], T.data());
    const double q = charge[i];
    for (int b = 0; b < n; ++b) L[b] += q * T[lift_[b]];
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
  T.resize(set_q_.size());
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

void ExpansionContext::m2l(const Vec3& src, const Vec3& dst, const double* M,
                           double* L) const {
  thread_local std::vector<double> T;
  thread_local std::vector<double> Ms;
  T.resize(set_q_.size());
  Ms.resize(ncoef());
  derivs_.evaluate(dst - src, T.data());
  for (int a = 0; a < ncoef(); ++a) Ms[a] = sign_[a] * M[a];
  for (const auto& pr : m2l_pairs_) L[pr.beta] += Ms[pr.alpha] * T[pr.sum];
}

void ExpansionContext::m2l_multi(const Vec3& src, const Vec3& dst,
                                 const double* M, double* L, int nrhs,
                                 int stride) const {
  thread_local std::vector<double> T;
  thread_local std::vector<double> Ms;
  T.resize(set_q_.size());
  Ms.resize(ncoef());
  derivs_.evaluate(dst - src, T.data());
  for (int r = 0; r < nrhs; ++r) {
    const double* m = M + static_cast<std::ptrdiff_t>(r) * stride;
    double* l = L + static_cast<std::ptrdiff_t>(r) * stride;
    for (int a = 0; a < ncoef(); ++a) Ms[a] = sign_[a] * m[a];
    for (const auto& pr : m2l_pairs_) l[pr.beta] += Ms[pr.alpha] * T[pr.sum];
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
