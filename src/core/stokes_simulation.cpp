#include "core/stokes_simulation.hpp"

#include <utility>

namespace afmm {

StokesSimulation::StokesSimulation(const StokesSimulationConfig& config,
                                   NodeSimulator node,
                                   std::vector<Vec3> positions,
                                   ForceModel force_model)
    : SimulationEngine(config,
                       StokesProblem(config.fmm, config.epsilon,
                                     config.viscosity, std::move(node),
                                     std::move(positions),
                                     std::move(force_model))) {}

StokesSimulation::StokesSimulation(const StokesSimulationConfig& config,
                                   NodeSimulator node,
                                   const SimCheckpoint& ckpt,
                                   ForceModel force_model)
    : SimulationEngine(config,
                       StokesProblem(config.fmm, config.epsilon,
                                     config.viscosity, std::move(node), {},
                                     std::move(force_model)),
                       ckpt) {}

}  // namespace afmm
