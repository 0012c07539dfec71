// Time-dependent gravitational simulation driving the AFMM + load balancer.
//
// Integration is kick-drift-kick leapfrog. Each step:
//
//   1. kick (half) + drift using the acceleration of the previous solve
//   2. rebin the moved bodies into the existing tree structure
//   3. hand the previous step's observed times to the load balancer, which
//      may rebuild the tree with a new S, Enforce_S it, or fine-tune it
//   4. solve the AFMM on the (possibly modified) tree
//   5. kick (half)
//
// Per-step records carry everything Figs. 8/9 and Table II report: compute
// time, load-balancing time, the S in force, and the balancer state.
//
// GravitySimulation is SimulationEngine<GravityProblem> (core/engine.hpp):
// the step loop, resilience wrapper (watchdog / audit / checkpoint-rollback)
// and observability emission are the problem-generic engine's; only the
// leapfrog physics is gravity's own (core/problems.hpp).
#pragma once

#include "core/engine.hpp"
#include "core/problems.hpp"

namespace afmm {

struct SimulationConfig : EngineConfig {
  double grav_const = 1.0;
  double softening = 1e-3;
};

class GravitySimulation : public SimulationEngine<GravityProblem> {
 public:
  GravitySimulation(const SimulationConfig& config, NodeSimulator node,
                    ParticleSet bodies);

  // Resume from a checkpoint: the simulation continues the EXACT trajectory
  // the checkpointed run would have produced (config and node must match the
  // original run's). Throws std::invalid_argument on a kind mismatch.
  GravitySimulation(const SimulationConfig& config, NodeSimulator node,
                    const SimCheckpoint& ckpt);

  const ParticleSet& bodies() const { return problem().bodies(); }
};

}  // namespace afmm
