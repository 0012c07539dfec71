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
//
// The recurrence is homogeneous term by term: at r = 2^-l k every R^n_a is
// 2^(l(2n+|a|+1)) times its value at k, and both addends of a step carry the
// same power of two. While every intermediate stays normal the rounding
// commutes with that scaling, so T_alpha(2^-l k) = 2^(l(|alpha|+1))
// T_alpha(k) bitwise; negating r negates R^n_a for odd |a|, so
// T_alpha(-k) = (-1)^|alpha| T_alpha(k) too, except that an entry that is
// exactly zero may come out with the other sign. evaluate_rescalable() and
// rescale() let the far field share one tensor among all M2L pairs whose
// offsets differ only by such a factor (DESIGN.md, far-field section).
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

  // evaluate(k, out), and the largest level L such that for every l in
  // [0, L] evaluate(2^-l k) equals rescale(out, l, false) bitwise (and
  // evaluate(-2^-l k) equals rescale(out, l, true) up to the sign of exact
  // zeros). The bound is conservative: it is derived from the exponent span
  // of this run's intermediates, of k's components and l (2Q+1). Returns -1
  // when no level qualifies; `out` is then unspecified and may be untouched.
  int evaluate_rescalable(const Vec3& k, double* out) const;

  // out[idx] = s^|alpha| 2^(level (|alpha|+1)) Tk[idx] with s = -1 if
  // `reflect`, else 1: the tensor at s 2^-level k from the tensor Tk at k.
  // `level` must not exceed what evaluate_rescalable(k) returned.
  void rescale(const double* Tk, int level, bool reflect, double* out) const;

  const MultiIndexSet& set() const { return set_; }

 private:
  // Runs the recurrence into this thread's scratch, laid out
  // work[a * set.size() + idx] = R^a_idx for |idx| <= Q - a, and returns it.
  const double* recurrence(const Vec3& r) const;

  MultiIndexSet set_;
};

}  // namespace afmm
