// Time-dependent Stokes-flow simulation (the paper's fluid problem class):
// force-driven Stokeslets advected by the velocity they induce. In Stokes
// flow there is no inertia -- positions integrate the velocity directly:
//
//     u_i = (1 / (8 pi mu)) * sum_j S_eps(x_i - x_j) f_j
//     x_i' = u_i (+ optional background settling velocity)
//
// Forces come from a user-supplied ForceModel evaluated at the current
// configuration (gravity-driven sedimentation, elastic fibers, ...).
//
// StokesSimulation is SimulationEngine<StokesProblem> (core/engine.hpp), so
// the fluid problem gets the IDENTICAL per-step balancing loop, resilience
// wrapper (watchdog / audit / checkpoint-rollback) and observability stack
// as the gravitational simulation -- while exercising the ~4x-heavier M2L
// mix the paper highlights.
#pragma once

#include <vector>

#include "core/engine.hpp"
#include "core/problems.hpp"

namespace afmm {

struct StokesSimulationConfig : EngineConfig {
  double epsilon = 1e-3;    // regularization blob size
  double viscosity = 1.0;   // mu in the 1/(8 pi mu) mobility prefactor
};

class StokesSimulation : public SimulationEngine<StokesProblem> {
 public:
  StokesSimulation(const StokesSimulationConfig& config, NodeSimulator node,
                   std::vector<Vec3> positions, ForceModel force_model);

  // Resume from a checkpoint taken by an identically configured run (the
  // force model is configuration and is not serialized). Throws
  // std::invalid_argument on a kind mismatch.
  StokesSimulation(const StokesSimulationConfig& config, NodeSimulator node,
                   const SimCheckpoint& ckpt, ForceModel force_model);

  const std::vector<Vec3>& positions() const {
    return problem().position_vector();
  }
  const std::vector<Vec3>& velocities() const {
    return problem().velocities();
  }
};

}  // namespace afmm
