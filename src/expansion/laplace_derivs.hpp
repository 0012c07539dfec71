// Exact partial derivatives of the Laplace Green's function G(r) = 1/|r|.
//
// LaplaceDerivatives fills T[alpha] = D^alpha (1/|r|) for every alpha with
// |alpha| <= Q using the McMurchie-Davidson-style recurrence
//
//   R^n_0        = (-1)^n (2n-1)!! / |r|^(2n+1)
//   R^n_{a+e_d}  = a_d * R^{n+1}_{a-e_d} + r_d * R^{n+1}_a
//   T_alpha      = R^0_alpha
//
// which is exact in double precision (no truncation; only rounding).
#pragma once

#include "expansion/multi_index.hpp"
#include "util/vec3.hpp"

namespace afmm {

class LaplaceDerivatives {
 public:
  // `set`'s max_order() is the derivative order Q.
  explicit LaplaceDerivatives(MultiIndexSet set);

  // Fills out[idx] = D^alpha(1/|r|)(r) for each idx in the set.
  // `out` must have set.size() entries. r must be nonzero.
  void evaluate(const Vec3& r, double* out) const;

  const MultiIndexSet& set() const { return set_; }

 private:
  MultiIndexSet set_;
  // Scratch sized (Q+1) * set.size(); mutable via thread_local in evaluate.
};

}  // namespace afmm
