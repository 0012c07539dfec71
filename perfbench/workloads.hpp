// The benchmark's workloads: what each one simulates, on which simulated
// machine, and the bodies its seed generates.
//
// Every workload is a closed-loop batch simulation with one client: it
// issues the next step() only after the previous one returned. Steps run in
// fixed-length episodes (construct the simulation, take `episode_steps`
// steps), so every episode of one seed replays the same trajectory and a
// run's metrics do not depend on how many episodes fit in its time budget.
//
// Why each workload exists (see README.md for the layer map):
//   plummer-near    gravity on paper system A's shape (10 cores + 2 C2050s);
//                   the balancer settles at a large S and the serial
//                   near-field loop (gpusim run_p2p) dominates host wall.
//   plummer-far     the same bodies on 32 cores + one 1-SM GPU; S settles
//                   small, so the far field (expansion, M2L above all)
//                   dominates and a near-field change should read as none.
//   stokes-sediment a regularized-Stokeslet blob falling through the box;
//                   the tree changes shape nearly every step (rebuilds,
//                   Enforce_S, fine-grained ops, list-cache misses), with
//                   benchmark-driven audits + on-disk checkpoints and trace
//                   + metrics emission on.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/simulation.hpp"
#include "core/stokes_simulation.hpp"
#include "dist/distributions.hpp"
#include "util/rng.hpp"

namespace perfbench {

using afmm::Vec3;

enum class Physics { kGravity, kStokes };

// Test hooks: values that replace a workload's defaults when non-zero.
struct Overrides {
  std::size_t n = 0;
  double dt = 0.0;
  int steps = 0;
};

struct Workload {
  std::string name;
  Physics physics = Physics::kGravity;
  std::size_t n = 10000;
  int episode_steps = 8;
  // The benchmark's own run_audit() + checkpoint()/CheckpointStore::save
  // cadence in steps (0 = never).
  int state_interval = 0;
  afmm::SimulationConfig gravity;       // physics == kGravity
  afmm::StokesSimulationConfig stokes;  // physics == kStokes
  afmm::CpuModelConfig cpu;
  afmm::GpuSystemConfig gpus;

  const afmm::EngineConfig& engine() const {
    if (physics == Physics::kGravity) return gravity;
    return stokes;
  }
  // A fresh copy of the simulated machine. Overlap execution is pinned off
  // so the AFMM_OVERLAP environment variable cannot change the workload.
  afmm::NodeSimulator node() const {
    afmm::NodeSimulator node(cpu, gpus);
    node.set_overlap(afmm::OverlapMode::kOff);
    return node;
  }
  afmm::ForceModel force_model() const {
    return afmm::constant_force({0, 0, -1});
  }
  // The root box every body must stay inside (the step guard).
  const afmm::TreeConfig& root() const { return engine().tree; }
};

// Snapshots the benchmark's CheckpointStore keeps.
inline constexpr int kCheckpointKeep = 3;

// The stokes blob falls at a speed proportional to N, so dt scales as 1/N:
// over one episode the blob crosses most of the box and stays inside it.
inline constexpr double kStokesDtTimesN = 20.0;

inline Workload make_workload(const std::string& name, const Overrides& o) {
  Workload w;
  w.name = name;
  if (name == "plummer-near" || name == "plummer-far") {
    w.physics = Physics::kGravity;
    w.gravity.fmm.order = 5;
    w.gravity.dt = 0.01;
    w.gravity.softening = 0.01;
    w.gravity.balancer.strategy = afmm::LbStrategy::kFull;
    // Plummer sampling rejects radii beyond 10 (PlummerOptions::max_radius),
    // so a fixed box of half-width 12 holds every seed's bodies with room to
    // move, and the tree geometry does not depend on the seed's outliers.
    w.gravity.tree.root_center = {0, 0, 0};
    w.gravity.tree.root_half = 12.0;
    if (name == "plummer-near") {
      w.cpu.num_cores = 10;
      w.gpus = afmm::GpuSystemConfig::uniform(2);
      w.gravity.balancer.initial_S = 768;
      w.gravity.balancer.min_S = 256;
      w.gravity.balancer.max_S = 2048;
    } else {
      w.cpu.num_cores = 32;
      afmm::GpuDeviceConfig one_sm;
      one_sm.num_sms = 1;
      w.gpus = afmm::GpuSystemConfig::uniform(1, one_sm);
      w.gravity.balancer.initial_S = 24;
      w.gravity.balancer.min_S = 8;
      w.gravity.balancer.max_S = 64;
      w.episode_steps = 5;
    }
  } else if (name == "stokes-sediment") {
    w.physics = Physics::kStokes;
    w.stokes.fmm.order = 5;
    w.stokes.tree.root_center = {0, 0, 0};
    w.stokes.tree.root_half = 10.0;
    w.stokes.epsilon = 0.02;
    w.stokes.viscosity = 1.0;
    w.stokes.balancer.strategy = afmm::LbStrategy::kFull;
    w.stokes.balancer.initial_S = 448;
    w.stokes.balancer.min_S = 128;
    w.stokes.balancer.max_S = 1024;
    w.stokes.obs.trace = true;
    w.stokes.obs.metrics = true;
    w.state_interval = 4;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (o.n) w.n = o.n;
  if (o.steps) w.episode_steps = o.steps;
  if (w.physics == Physics::kStokes)
    w.stokes.dt = o.dt > 0 ? o.dt : kStokesDtTimesN / static_cast<double>(w.n);
  else if (o.dt > 0)
    w.gravity.dt = o.dt;
  return w;
}

// The workload's bodies, a pure function of (workload, seed).
inline afmm::ParticleSet make_bodies(const Workload& w, std::uint64_t seed) {
  afmm::Rng rng(seed);
  afmm::ParticleSet set;
  if (w.physics == Physics::kGravity) {
    return afmm::plummer(w.n, rng, afmm::PlummerOptions{});
  }
  // Unit ball of Stokeslets centred 6 above the box centre.
  set.positions.reserve(w.n);
  while (set.positions.size() < w.n) {
    const Vec3 p{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    if (afmm::norm2(p) <= 1.0) set.positions.push_back(p + Vec3{0, 0, 6});
  }
  return set;
}

}  // namespace perfbench
