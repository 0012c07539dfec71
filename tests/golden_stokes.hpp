// Golden-trajectory scenario for the Stokeslet path.
//
// The gravity golden (golden_gravity.hpp) pins the Laplace kernel and the
// single-rhs far field only. This scenario pins the other half of the
// solver: the regularized Stokeslet near field and m2l_multi with nrhs = 4.
// A short falling-blob StokesSimulation runs with a GPU batch corruption
// that the P2P checksums detect and repair, GPU throttle/loss faults,
// audits, checkpoints, trace and metrics, and is serialized the same way:
// every StepRecord field (including the SDC tallies) in hexfloat, the final
// positions and velocities bit-for-bit, and FNV-1a fingerprints of the
// trace JSON and metric rows. The dump is committed at
// tests/golden/stokes_short.golden; the test requires byte equality.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/stokes_simulation.hpp"
#include "golden_gravity.hpp"
#include "util/rng.hpp"

namespace afmm::golden {

inline constexpr int kStokesGoldenSteps = 10;

inline StokesSimulationConfig stokes_golden_config() {
  StokesSimulationConfig cfg;
  cfg.fmm.order = 3;
  cfg.fmm.sdc.p2p_checks = true;
  cfg.fmm.sdc.p2p_verify_stride = 5;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 4.0;
  cfg.epsilon = 0.05;
  cfg.viscosity = 1.0;
  cfg.dt = 1e-3;
  cfg.balancer.initial_S = 32;
  cfg.faults.gpu_throttle(2, 1, 0.5).sdc_gpu_batch(4).gpu_loss(6, 0);
  cfg.fault_seed = 11;
  cfg.resilience.checkpoint_interval = 3;
  cfg.resilience.audit.interval = 2;
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  return cfg;
}

// `n` points drawn uniformly from the ball of `radius` around `center`.
inline std::vector<Vec3> blob(Rng& rng, int n, const Vec3& center,
                              double radius) {
  std::vector<Vec3> pos;
  while (static_cast<int>(pos.size()) < n) {
    Vec3 p{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    if (norm2(p) <= 1.0) pos.push_back(center + radius * p);
  }
  return pos;
}

inline StokesSimulation stokes_golden_simulation() {
  Rng rng(2027);
  return StokesSimulation(stokes_golden_config(),
                          NodeSimulator(CpuModelConfig{},
                                        GpuSystemConfig::uniform(2)),
                          blob(rng, 600, {0, 0, 3}, 1.0),
                          constant_force({0, 0, -1}));
}

inline std::string stokes_golden_dump() {
  StokesSimulation sim = stokes_golden_simulation();
  std::string out = "golden stokes v1\n";
  for (int i = 0; i < kStokesGoldenSteps; ++i) {
    const StepRecord r = sim.step();
    out += dump_record(r);
    out += "  sdc " + std::to_string(r.sdc_injected) + " " +
           std::to_string(r.sdc_detected) + " " +
           std::to_string(r.sdc_repaired) + " " +
           std::to_string(r.sdc_unrepaired) + " " +
           std::to_string(r.sdc_escalated ? 1 : 0) + "\n";
  }

  const auto& x = sim.positions();
  const auto& u = sim.velocities();
  for (std::size_t i = 0; i < x.size(); ++i) {
    out += "pos " + std::to_string(i) + " " + hexf(x[i].x) + " " +
           hexf(x[i].y) + " " + hexf(x[i].z) + "\n";
    out += "vel " + std::to_string(i) + " " + hexf(u[i].x) + " " +
           hexf(u[i].y) + " " + hexf(u[i].z) + "\n";
  }
  out += stream_fingerprints(*sim.trace(), *sim.metrics());
  out += "virtual_now " + hexf(sim.virtual_now()) + "\n";
  return out;
}

}  // namespace afmm::golden
