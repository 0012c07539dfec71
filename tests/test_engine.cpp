// SimulationEngine seam tests (core/engine.hpp):
//
//   * the committed golden dumps pin gravity and Stokes trajectories,
//     StepRecords, trace bytes and metric rows bit-for-bit (the gravity one
//     was recorded with the pre-refactor GravitySimulation);
//   * Stokes runs the same resilience loop as gravity (audit failure and
//     watchdog trips roll back to the last good checkpoint and re-enter
//     Search);
//   * Stokes observability is read-only (obs on/off trajectories match
//     bit-for-bit) and deterministic (two obs-on runs emit identical bytes);
//   * StepRecord parity: both problems populate the prediction / resilience
//     fields on the same cadence, so downstream consumers (benches, the step
//     emitter) need no per-problem cases;
//   * neither simulation can be copied or moved, and both step degenerate
//     body sets (empty, one body, a pair, coincident bodies) finitely.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <numbers>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/simulation.hpp"
#include "core/stokes_simulation.hpp"
#include "dist/distributions.hpp"
#include "golden_gravity.hpp"
#include "golden_stokes.hpp"
#include "kernels/gravity.hpp"
#include "kernels/stokeslet.hpp"
#include "state/auditor.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

// First line where the two dumps disagree, for a readable failure message.
std::string first_diff(const std::string& a, const std::string& b) {
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  int line = 1;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    if (!ga && !gb) return "(no differing line found)";
    if (la != lb || ga != gb)
      return "line " + std::to_string(line) + ":\n  golden: " +
             (ga ? la : "<eof>") + "\n  got:    " + (gb ? lb : "<eof>");
    ++line;
  }
}

// Compares a fresh dump with the committed golden file `name`; under
// AFMM_REGEN_GOLDEN=1 rewrites the file instead and skips.
void check_golden(const std::string& name, const std::string& got) {
  const std::string path = std::string(AFMM_GOLDEN_DIR) + "/" + name;
  if (std::getenv("AFMM_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing " << path
                  << " (run with AFMM_REGEN_GOLDEN=1 to create it)";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string expect = buf.str();

  // Byte equality covers every StepRecord field (hexfloat), the full final
  // phase space, the trace JSON fingerprint and the metric rows -- one ULP
  // of drift anywhere fails. Compare fingerprints first so a mismatch
  // reports a single readable line instead of 60 kB of dump.
  ASSERT_FALSE(expect.empty());
  EXPECT_EQ(golden::fnv1a(got), golden::fnv1a(expect))
      << "first divergence at " << first_diff(expect, got);
  EXPECT_TRUE(got == expect);
}

TEST(Engine, GravityGoldenTrajectoryIsBitIdentical) {
  check_golden("gravity_short.golden", golden::golden_dump());
}

// The Stokeslet near field, m2l_multi with nrhs = 4 and the P2P batch
// checksum repair have their own committed reference.
TEST(Engine, StokesGoldenTrajectoryIsBitIdentical) {
  check_golden("stokes_short.golden", golden::stokes_golden_dump());
}

using golden::blob;

StokesSimulationConfig stokes_config() {
  StokesSimulationConfig cfg;
  cfg.fmm.order = 3;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 8.0;
  cfg.epsilon = 0.05;
  cfg.viscosity = 1.0;
  cfg.dt = 1e-3;
  cfg.balancer.initial_S = 32;
  return cfg;
}

StokesSimulation stokes_sim(const StokesSimulationConfig& cfg,
                            unsigned seed = 93) {
  Rng rng(seed);
  auto pos = blob(rng, 500, {0, 0, 3}, 1.0);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));
  return StokesSimulation(cfg, std::move(node), std::move(pos),
                          constant_force({0, 0, -1}));
}

TEST(Engine, RejectsNonPositiveOrNonFiniteDt) {
  for (double dt : {0.0, -1e-3, std::numeric_limits<double>::quiet_NaN(),
                    std::numeric_limits<double>::infinity()}) {
    SimulationConfig grav;
    grav.dt = dt;
    Rng rng(5);
    EXPECT_THROW(GravitySimulation(grav,
                                   NodeSimulator(CpuModelConfig{},
                                                 GpuSystemConfig::uniform(1)),
                                   uniform_cube(50, rng, {0.5, 0.5, 0.5}, 0.5)),
                 std::invalid_argument)
        << dt;
    auto stokes = stokes_config();
    stokes.dt = dt;
    EXPECT_THROW(stokes_sim(stokes), std::invalid_argument) << dt;
  }
  auto cfg = stokes_config();
  cfg.dt = -0.5;
  try {
    stokes_sim(cfg);
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("dt"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-0.5"), std::string::npos);
  }
}

// A fresh run starts only from finite bodies inside the closed root cube:
// the tree build files any position (mid-run NaNs must build, fail the
// audit and roll back), so a stray initial body would be solved silently
// with wrong results. A body exactly on a face is inside.
TEST(Engine, RejectsBodiesOutsideRootOrNonFinite) {
  using L = std::numeric_limits<double>;
  struct Row {
    const char* name;
    int axis;
    double (*place)(double center, double half);
    bool accepted;
  };
  const Row rows[] = {
      {"NaN x", 0, [](double, double) { return L::quiet_NaN(); }, false},
      {"inf y", 1, [](double, double) { return L::infinity(); }, false},
      {"just outside the upper z face", 2,
       [](double c, double h) { return std::nextafter(c + h, L::infinity()); },
       false},
      {"just outside the lower x face", 0,
       [](double c, double h) { return std::nextafter(c - h, -L::infinity()); },
       false},
      {"on the upper z face", 2, [](double c, double h) { return c + h; },
       true},
      {"on the lower y face", 1, [](double c, double h) { return c - h; },
       true},
  };
  constexpr int kBody = 7;
  const auto expect = [](const Row& row, auto construct) {
    try {
      construct();
      EXPECT_TRUE(row.accepted) << row.name << ": accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_FALSE(row.accepted) << row.name << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find("body " + std::to_string(kBody)),
                std::string::npos)
          << e.what();
    }
  };
  for (const Row& row : rows) {
    SimulationConfig grav;
    Rng grng(5);
    auto set = uniform_cube(50, grng, {0.5, 0.5, 0.5}, 0.5);
    set.positions[kBody][row.axis] = row.place(
        grav.tree.root_center[row.axis], grav.tree.root_half);
    expect(row, [&] {
      GravitySimulation(grav,
                        NodeSimulator(CpuModelConfig{},
                                      GpuSystemConfig::uniform(1)),
                        set);
    });

    const auto stokes = stokes_config();
    Rng srng(93);
    auto pos = blob(srng, 500, {0, 0, 3}, 1.0);
    pos[kBody][row.axis] = row.place(stokes.tree.root_center[row.axis],
                                     stokes.tree.root_half);
    expect(row, [&] {
      StokesSimulation(stokes,
                       NodeSimulator(CpuModelConfig{},
                                     GpuSystemConfig::uniform(2)),
                       pos, constant_force({0, 0, -1}));
    });
  }
}

TEST(Engine, RejectsInvalidResilienceConfig) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Row {
    const char* field;
    void (*set)(ResilienceConfig&, double);
    double value;
  };
  const auto interval = [](ResilienceConfig& r, double v) {
    r.checkpoint_interval = static_cast<int>(v);
  };
  const auto keep = [](ResilienceConfig& r, double v) {
    r.checkpoint_keep = static_cast<int>(v);
  };
  const auto audit_interval = [](ResilienceConfig& r, double v) {
    r.audit.interval = static_cast<int>(v);
  };
  const auto samples = [](ResilienceConfig& r, double v) {
    r.audit.force_samples = static_cast<int>(v);
  };
  const auto force_tol = [](ResilienceConfig& r, double v) {
    r.audit.force_rel_tol = v;
  };
  const auto slack = [](ResilienceConfig& r, double v) {
    r.audit.leaf_capacity_slack = v;
  };
  const auto momentum = [](ResilienceConfig& r, double v) {
    r.audit.momentum_rel_tol = v;
  };
  const auto wall = [](ResilienceConfig& r, double v) {
    r.watchdog.wall_limit_seconds = v;
  };
  const auto virt = [](ResilienceConfig& r, double v) {
    r.watchdog.virtual_limit_seconds = v;
  };
  const Row bad[] = {
      {"checkpoint_interval", interval, -1},
      {"checkpoint_keep", keep, 0},
      {"audit.interval", audit_interval, -1},
      {"audit.force_samples", samples, -1},
      {"audit.force_rel_tol", force_tol, nan},
      {"audit.force_rel_tol", force_tol, 0},
      {"audit.leaf_capacity_slack", slack, inf},
      {"audit.leaf_capacity_slack", slack, -1},
      {"audit.momentum_rel_tol", momentum, nan},
      {"audit.momentum_rel_tol", momentum, -1},
      {"watchdog.wall_limit_seconds", wall, -1},
      {"watchdog.wall_limit_seconds", wall, inf},
      {"watchdog.virtual_limit_seconds", virt, nan},
  };
  for (const Row& row : bad) {
    auto cfg = stokes_config();
    row.set(cfg.resilience, row.value);
    try {
      stokes_sim(cfg);
      ADD_FAILURE() << row.field << " = " << row.value << ": no throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(row.field), std::string::npos)
          << e.what();
    }
  }
  // Each field at its boundary is accepted.
  const double tiny = std::numeric_limits<double>::denorm_min();
  const Row boundary[] = {
      {"checkpoint_interval", interval, 0}, {"checkpoint_keep", keep, 1},
      {"audit.interval", audit_interval, 0}, {"audit.force_samples", samples, 0},
      {"audit.force_rel_tol", force_tol, tiny},
      {"audit.leaf_capacity_slack", slack, tiny},
      {"audit.momentum_rel_tol", momentum, 0},
      {"watchdog.wall_limit_seconds", wall, 0},
      {"watchdog.virtual_limit_seconds", virt, 0},
  };
  for (const Row& row : boundary) {
    auto cfg = stokes_config();
    row.set(cfg.resilience, row.value);
    EXPECT_NO_THROW(cfg.resilience.validate()) << row.field;
  }
}

TEST(Engine, StokesAuditFailureRollsBackAndReSearches) {
  auto cfg = stokes_config();
  cfg.resilience.checkpoint_interval = 4;
  cfg.resilience.audit.interval = 1;
  auto sim = stokes_sim(cfg);
  sim.run(6);
  ASSERT_EQ(sim.rollbacks(), 0);
  ASSERT_TRUE(sim.run_audit().ok());

  // Silent structural corruption: the solve still runs (nothing reads the
  // parent link), but the end-of-step audit catches it and recovers.
  sim.corrupt_tree_for_test();
  const auto rec = sim.step();
  EXPECT_TRUE(rec.audited);
  EXPECT_TRUE(rec.audit_failed);
  EXPECT_TRUE(rec.rolled_back);
  EXPECT_GE(rec.restored_step, 0);
  EXPECT_EQ(sim.rollbacks(), 1);
  // Rollback re-enters Search so the balancer re-learns the machine --
  // identical policy to the gravity path (tests/test_auditor.cpp).
  EXPECT_EQ(sim.balancer().state(), LbState::kSearch);
  // The restored state is clean and the run continues healthily.
  EXPECT_TRUE(sim.run_audit().ok());
  for (const auto& r : sim.run(3)) {
    EXPECT_FALSE(r.audit_failed);
    EXPECT_FALSE(r.rolled_back);
  }
}

TEST(Engine, StokesWatchdogTripRollsBack) {
  // The acceptance scenario: observability AND a fault schedule on while the
  // watchdog trips -- the run must survive the rollback and keep emitting a
  // well-formed trace.
  auto cfg = stokes_config();
  cfg.resilience.checkpoint_interval = 4;
  // Impossible virtual budget: every step trips deterministically.
  cfg.resilience.watchdog.virtual_limit_seconds = 1e-12;
  // At step 0: every later step is rolled back to step 0, so the injector
  // (restored with each rollback) replays exactly this event each time.
  cfg.faults.gpu_throttle(0, 0, 0.5);
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  auto sim = stokes_sim(cfg);
  const auto rec = sim.step();
  EXPECT_TRUE(rec.watchdog_tripped);
  EXPECT_TRUE(rec.rolled_back);
  EXPECT_EQ(rec.restored_step, 0);
  EXPECT_EQ(sim.rollbacks(), 1);
  EXPECT_EQ(sim.balancer().state(), LbState::kSearch);

  // The run survives repeated trip + rollback cycles.
  for (const auto& r : sim.run(4)) {
    EXPECT_TRUE(r.watchdog_tripped);
    EXPECT_TRUE(r.rolled_back);
  }
  // The trace recorded the whole ordeal: step spans, rollback markers on the
  // state track, and the injected fault instants.
  ASSERT_NE(sim.trace(), nullptr);
  bool saw_state = false, saw_fault = false, saw_step = false;
  for (const auto& e : sim.trace()->events()) {
    saw_state |= e.cat == "state";
    saw_fault |= e.cat == "fault";
    saw_step |= e.cat == "step";
  }
  EXPECT_TRUE(saw_step);
  EXPECT_TRUE(saw_state);
  EXPECT_TRUE(saw_fault);
  const std::string json = sim.trace()->to_json();
  EXPECT_GT(json.size(), 2u);
  ASSERT_NE(sim.metrics(), nullptr);
  EXPECT_FALSE(sim.metrics()->rows().empty());
}

TEST(Engine, StokesObservabilityIsReadOnlyAndDeterministic) {
  constexpr int kSteps = 8;
  auto plain_cfg = stokes_config();
  auto obs_cfg = plain_cfg;
  obs_cfg.obs.trace = true;
  obs_cfg.obs.metrics = true;

  auto plain = stokes_sim(plain_cfg);
  auto obs_a = stokes_sim(obs_cfg);
  auto obs_b = stokes_sim(obs_cfg);
  const auto rec_plain = plain.run(kSteps);
  const auto rec_a = obs_a.run(kSteps);
  obs_b.run(kSteps);

  // Observation never perturbs the run: positions and the balancer's S
  // series match the obs-off run bit-for-bit.
  ASSERT_EQ(plain.positions().size(), obs_a.positions().size());
  for (std::size_t i = 0; i < plain.positions().size(); ++i) {
    EXPECT_EQ(plain.positions()[i].x, obs_a.positions()[i].x);
    EXPECT_EQ(plain.positions()[i].y, obs_a.positions()[i].y);
    EXPECT_EQ(plain.positions()[i].z, obs_a.positions()[i].z);
  }
  for (int i = 0; i < kSteps; ++i) {
    EXPECT_EQ(rec_plain[i].S, rec_a[i].S);
    EXPECT_EQ(rec_plain[i].state, rec_a[i].state);
    EXPECT_EQ(rec_plain[i].compute_seconds, rec_a[i].compute_seconds);
  }
  EXPECT_EQ(plain.trace(), nullptr);
  EXPECT_EQ(plain.metrics(), nullptr);

  // ... and two obs-on runs emit byte-identical traces and metric rows
  // (virtual-time clocks only), mirroring tests/test_obs.cpp for gravity.
  ASSERT_NE(obs_a.trace(), nullptr);
  ASSERT_NE(obs_b.trace(), nullptr);
  EXPECT_EQ(obs_a.trace()->to_json(), obs_b.trace()->to_json());
  const auto& rows_a = obs_a.metrics()->rows();
  const auto& rows_b = obs_b.metrics()->rows();
  ASSERT_EQ(rows_a.size(), rows_b.size());
  for (std::size_t i = 0; i < rows_a.size(); ++i) {
    EXPECT_EQ(rows_a[i].step, rows_b[i].step);
    EXPECT_EQ(rows_a[i].metric, rows_b[i].metric);
    EXPECT_EQ(rows_a[i].value, rows_b[i].value);
  }
  EXPECT_EQ(obs_a.virtual_now(), obs_b.virtual_now());
  EXPECT_GT(obs_a.virtual_now(), 0.0);
}

TEST(Engine, StepRecordParityAcrossProblems) {
  // Both problems run with the same engine cadence; the records they produce
  // must populate the shared fields alike -- the gap this closes is Stokes
  // historically dropping predictions and resilience bookkeeping.
  constexpr int kSteps = 10;
  ResilienceConfig cadence;
  cadence.checkpoint_interval = 4;
  cadence.audit.interval = 2;
  cadence.audit.force_samples = 0;  // cadence parity, not physics

  SimulationConfig gcfg;
  gcfg.fmm.order = 3;
  gcfg.tree.root_center = {0.5, 0.5, 0.5};
  gcfg.tree.root_half = 0.5;
  gcfg.balancer.initial_S = 32;
  gcfg.resilience = cadence;
  Rng grng(2026);
  auto bodies = uniform_cube(400, grng, {0.5, 0.5, 0.5}, 0.5);
  NodeSimulator gnode(CpuModelConfig{}, GpuSystemConfig::uniform(2));
  GravitySimulation grav(gcfg, std::move(gnode), std::move(bodies));

  auto scfg = stokes_config();
  scfg.resilience = cadence;
  auto stokes = stokes_sim(scfg);

  const auto g = grav.run(kSteps);
  const auto s = stokes.run(kSteps);
  ASSERT_EQ(g.size(), s.size());
  bool any_predictions = false;
  for (int i = 0; i < kSteps; ++i) {
    EXPECT_EQ(g[i].step, s[i].step) << "step " << i;
    // Resilience bookkeeping follows the shared cadence, not the problem.
    EXPECT_EQ(g[i].audited, s[i].audited) << "step " << i;
    EXPECT_EQ(g[i].checkpointed, s[i].checkpointed) << "step " << i;
    EXPECT_FALSE(s[i].audit_failed) << "step " << i;
    EXPECT_FALSE(s[i].watchdog_tripped) << "step " << i;
    EXPECT_FALSE(s[i].rolled_back) << "step " << i;
    EXPECT_EQ(g[i].restored_step, s[i].restored_step) << "step " << i;
    // Both problems prime with an initial solve, so the cost model becomes
    // ready on the same step for both and predictions appear together.
    EXPECT_EQ(g[i].predicted_far_seconds > 0.0,
              s[i].predicted_far_seconds > 0.0)
        << "step " << i;
    EXPECT_EQ(g[i].predicted_near_seconds > 0.0,
              s[i].predicted_near_seconds > 0.0)
        << "step " << i;
    any_predictions |= s[i].predicted_far_seconds > 0.0;
    // Health/fault fields are populated (healthy machine, 2 GPUs) for both.
    EXPECT_EQ(s[i].alive_gpus, 2) << "step " << i;
    EXPECT_GT(s[i].gpu_capability, 0.0) << "step " << i;
    EXPECT_GT(s[i].effective_cores, 0) << "step " << i;
  }
  EXPECT_TRUE(any_predictions);

  // Drift guard: adding a StepRecord field changes this size; extend the
  // parity checks above (and golden_gravity.hpp's dump) when it fires.
  struct Expected {
    int step;
    double a, b, c, d;
    int S;
    LbState state;
    bool rebuilt;
    int enforce_ops, fgo_ops;
    SolveStats stats;
    int faults_fired, alive_gpus;
    double gpu_capability;
    int effective_cores;
    bool capability_shift, cpu_fallback;
    int transfer_retries;
    double pfar, pnear;
    bool audited, audit_failed, watchdog_tripped, rolled_back;
    int restored_step;
    bool checkpointed;
    int sdc_injected, sdc_detected, sdc_repaired, sdc_unrepaired;
    bool sdc_escalated;
  };
  static_assert(sizeof(StepRecord) == sizeof(Expected),
                "StepRecord changed: update the parity test and golden dump");
}

// The engine hands pointers to its own members (the list cache, the virtual
// clock) to its problem and balancer, so a copied or moved simulation would
// keep stepping through the original's.
static_assert(!std::is_copy_constructible_v<GravitySimulation> &&
              !std::is_move_constructible_v<GravitySimulation>);
static_assert(!std::is_copy_constructible_v<StokesSimulation> &&
              !std::is_move_constructible_v<StokesSimulation>);

// Empty, single-body, pair and coincident body sets, each stepped 3 times
// on 4 cores and 2 GPUs.
struct DegenerateSet {
  const char* name;
  std::vector<Vec3> positions;
};

std::vector<DegenerateSet> degenerate_sets() {
  return {{"empty", {}},
          {"one body", {{0.5, 0.5, 0.5}}},
          {"pair", {{0.3, 0.4, 0.5}, {0.7, 0.6, 0.45}}},
          {"100 coincident", std::vector<Vec3>(100, Vec3{0.5, 0.5, 0.5})}};
}

NodeSimulator four_cores_two_gpus() {
  CpuModelConfig cpu;
  cpu.num_cores = 4;
  return NodeSimulator(cpu, GpuSystemConfig::uniform(2));
}

// "ok", or the first non-finite position or velocity.
std::string finite_state(std::span<const Vec3> positions,
                         std::span<const Vec3> velocities) {
  AuditReport report;
  audit_finite(positions, "position", report);
  audit_finite(velocities, "velocity", report);
  return report.summary();
}

void expect_near_vec(const Vec3& got, const Vec3& want, const char* name) {
  const double tol = 1e-12 * norm(want);
  EXPECT_NEAR(got.x, want.x, tol) << name;
  EXPECT_NEAR(got.y, want.y, tol) << name;
  EXPECT_NEAR(got.z, want.z, tol) << name;
}

TEST(Engine, GravityDegenerateBodySetsStayFinite) {
  for (const DegenerateSet& d : degenerate_sets()) {
    const std::size_t n = d.positions.size();
    SimulationConfig cfg;
    ParticleSet set;
    set.positions = d.positions;
    set.velocities.assign(n, Vec3{});
    set.masses.assign(n, 1.0);
    GravitySimulation sim(cfg, four_cores_two_gpus(), set);
    sim.run(3);
    ASSERT_EQ(sim.bodies().size(), n) << d.name;
    EXPECT_EQ(finite_state(sim.bodies().positions, sim.bodies().velocities),
              "ok")
        << d.name;
    if (n != 2) continue;
    // The last solve ran at the current positions (the closing half kick
    // moves only velocities).
    const auto direct = gravity_direct_all(GravityKernel(cfg.softening),
                                           sim.bodies().positions,
                                           sim.bodies().masses);
    const auto accel = sim.checkpoint().accel;
    for (std::size_t i = 0; i < n; ++i)
      expect_near_vec(accel[i], cfg.grav_const * direct[i].grad, d.name);
  }
}

TEST(Engine, StokesDegenerateBodySetsStayFinite) {
  for (const DegenerateSet& d : degenerate_sets()) {
    const std::size_t n = d.positions.size();
    auto cfg = stokes_config();
    const Vec3 force{0, 0, -1};
    StokesSimulation sim(cfg, four_cores_two_gpus(), d.positions,
                         constant_force(force));
    sim.run(2);
    // The last step solves at these positions, then advects away from them.
    const std::vector<Vec3> solved_at = sim.positions();
    sim.step();
    ASSERT_EQ(sim.positions().size(), n) << d.name;
    EXPECT_EQ(finite_state(sim.positions(), sim.velocities()), "ok")
        << d.name;
    if (n != 2) continue;
    const std::vector<Vec3> forces(n, force);
    const auto direct = stokeslet_direct_all(StokesletKernel(cfg.epsilon),
                                             solved_at, forces);
    const double mobility =
        1.0 / (8.0 * std::numbers::pi_v<double> * cfg.viscosity);
    for (std::size_t i = 0; i < n; ++i)
      expect_near_vec(sim.velocities()[i], mobility * direct[i].u, d.name);
  }
}

}  // namespace
}  // namespace afmm
