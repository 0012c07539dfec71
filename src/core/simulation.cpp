#include "core/simulation.hpp"

#include <utility>

namespace afmm {

GravitySimulation::GravitySimulation(const SimulationConfig& config,
                                     NodeSimulator node, ParticleSet bodies)
    : SimulationEngine(config,
                       GravityProblem(config.fmm, config.grav_const,
                                      config.softening, std::move(node),
                                      std::move(bodies))) {}

GravitySimulation::GravitySimulation(const SimulationConfig& config,
                                     NodeSimulator node,
                                     const SimCheckpoint& ckpt)
    : SimulationEngine(config,
                       GravityProblem(config.fmm, config.grav_const,
                                      config.softening, std::move(node),
                                      ParticleSet{}),
                       ckpt) {}

}  // namespace afmm
