// Observational time-costing model (paper Section IV.D).
//
// After each solve, per-operation coefficients are derived from observed
// times: coefficient = total observed time of the operation / number of
// applications. The GPU coefficient divides the maximum kernel time by the
// total number of P2P interactions, so it captures the whole GPU system's
// efficiency on the *current* tree shape (occupancy, ragged blocks, ...).
//
// The CPU coefficients are per-application thread-time; predicting a wall
// clock from them additionally needs the parallel efficiency of the task
// schedule, which is observed the same way (work / (makespan * cores)).
//
// Coefficients are smoothed with an EWMA so a single noisy step cannot whip
// the balancer around.
#pragma once

#include "machine/machine.hpp"
#include "octree/traversal.hpp"

namespace afmm {

struct CostCoefficients {
  // Seconds per application (CPU ops are per-application thread-seconds;
  // P2M / L2P are per covered body).
  double p2m_per_body = 0.0;
  double m2m = 0.0;
  double m2l = 0.0;
  double l2l = 0.0;
  double l2p_per_body = 0.0;
  // Seconds per P2P body-pair interaction, whole GPU system.
  double p2p = 0.0;
  // Seconds per P2P interaction when the near field runs on the CPU (the
  // all-GPUs-lost fallback); stays 0 while any GPU is alive.
  double p2p_cpu = 0.0;
  // Observed parallel efficiency of the far-field task schedule.
  double cpu_efficiency = 1.0;
};

// Learned state of the model (checkpoint/restore); the smoothing factor is
// configuration and travels with the owning balancer's config instead.
struct CostModelSnapshot {
  CostCoefficients coefficients;
  int observations = 0;
};

class CostModel {
 public:
  explicit CostModel(double smoothing = 0.5) : alpha_(smoothing) {}

  // Feed one step's observation (times must include gpu_seconds). An
  // operation that never fired (zero count) or a non-finite total keeps the
  // previous coefficient -- a pathological tree shape can starve an op but
  // must never divide by zero or poison a coefficient with NaN.
  void observe(const ObservedStepTimes& t, int num_cores);

  // Drop every learned coefficient and observation. The balancer calls this
  // when the machine's capability shifts (device loss, throttling): the old
  // coefficients describe hardware that no longer exists, and EWMA-chasing
  // them would poison predictions for many steps.
  void reset() { *this = CostModel(alpha_); }

  CostModelSnapshot snapshot() const {
    return {c_, observations_};
  }
  void restore(const CostModelSnapshot& snap) {
    c_ = snap.coefficients;
    observations_ = snap.observations;
  }

  bool ready() const { return observations_ > 0; }
  int observations() const { return observations_; }
  const CostCoefficients& coefficients() const { return c_; }

  // Predicted wall-clock times for a (possibly hypothetical) tree whose
  // operation counts are `m` -- the paper's T_cpu / T_gpu formulas.
  // predict_cpu includes the CPU-fallback near field (it serializes with the
  // far field on the same cores); predict_far is the expansion work alone
  // and predict_near the direct work wherever it currently executes -- the
  // two sides the capability-shift detector judges independently.
  double predict_cpu(const OpCounts& m, int num_cores) const;
  double predict_gpu(const OpCounts& m) const;
  double predict_far(const OpCounts& m, int num_cores) const;
  double predict_near(const OpCounts& m) const;
  double predict_compute(const OpCounts& m, int num_cores) const;

 private:
  void blend(double& coef, double total, double count);

  double alpha_;
  CostCoefficients c_;
  int observations_ = 0;
};

}  // namespace afmm
