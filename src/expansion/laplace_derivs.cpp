#include "expansion/laplace_derivs.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace afmm {

LaplaceDerivatives::LaplaceDerivatives(MultiIndexSet set)
    : set_(std::move(set)) {}

void LaplaceDerivatives::evaluate(const Vec3& r, double* out) const {
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

  for (int idx = 0; idx < n; ++idx) out[idx] = work[idx];
}

}  // namespace afmm
