// SDC chaos bench: inject silent corruption at three surfaces of a gravity
// run and demonstrate the full detect -> repair -> escalate arc of the ABFT
// defense (sdc/):
//
//   repair run     full detection armed. A flipped multipole coefficient
//                  (kSdcExpansion), a corrupted P2P batch (kSdcGpuBatch) and
//                  a post-step bit flip in the acceleration array (kBitFlip)
//                  are each caught by their checksum and surgically repaired
//                  -- batch re-execution, subtree re-upsweep, derived-state
//                  re-derivation -- with ZERO rollbacks, and the final
//                  trajectory is bit-identical to the fault-free reference.
//
//   escalate run   the P2P checksums are deliberately DISARMED, so the batch
//                  corruption bakes into the integrated state. The momentum
//                  tripwire catches the asymmetric force sum at the step
//                  audit; the localized repair rung re-derives the
//                  accelerations but the state-checksum proof shows the
//                  velocities already absorbed the corrupt kick -- so the
//                  ladder escalates to checkpoint rollback, and the replay
//                  (the fired-mark guarantees the corruption never re-fires)
//                  converges bit-identically to the reference. The expansion
//                  and bit-flip events in the same run are still repaired
//                  locally, so ONE trace carries both sdc-repair and
//                  rollback markers.
//
// Artifacts (under --out, default ./results):
//
//   sdc_recovery.csv            per-step series of the escalate run
//   sdc_recovery_trace.json     Chrome trace JSON with sdc-detect /
//                               sdc-repair / sdc-escalate / rollback instants
//                               (validate with tools/validate_trace.py --sdc)
//   sdc_recovery_metrics.csv    long-form per-step metrics incl. the sdc.*
//                               gauges and counters
//
// Exit status is nonzero if any injection goes undetected, the repair run
// rolls back, the escalate run does NOT roll back, or either run's final
// state diverges from the fault-free reference -- CI runs this as a smoke
// test.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/simulation.hpp"
#include "util/rng.hpp"

using namespace afmm;
using namespace afmm::bench;

namespace {

SimulationConfig base_config(int order, bool obs) {
  SimulationConfig cfg;
  cfg.fmm.order = order;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 8.0;
  cfg.balancer.initial_S = 64;
  cfg.dt = 1e-4;
  cfg.obs.trace = obs;
  cfg.obs.metrics = obs;
  return cfg;
}

GravitySimulation make_simulation(const SimulationConfig& cfg, long n) {
  Rng rng(2013);
  PlummerOptions opt;
  opt.scale_radius = 1.0;
  opt.max_radius = 8.0;
  return GravitySimulation(
      cfg, NodeSimulator(system_a_cpu(10), GpuSystemConfig::uniform(2)),
      plummer(static_cast<std::size_t>(n), rng, opt));
}

bool same_bodies(const ParticleSet& a, const ParticleSet& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a.positions[i] == b.positions[i] &&
          a.velocities[i] == b.velocities[i]))
      return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const long n = arg_or(argc, argv, "n", 4000);
  const int order = static_cast<int>(arg_or(argc, argv, "order", 3));
  const int steps = static_cast<int>(arg_or(argc, argv, "steps", 24));
  const long seed = arg_or(argc, argv, "seed", 11);
  const std::string out = out_dir(argc, argv);
  validate_args(argc, argv);

  const int t_expansion = steps / 4;       // default 6
  const int t_bitflip = 2 * steps / 4;     // default 12
  const int t_gpubatch = 3 * steps / 4;    // default 18

  std::printf(
      "sdc recovery: %ld bodies, order %d, %d steps; expansion flip @%d, "
      "accel bit flip @%d, p2p batch corruption @%d (schedule seed %ld)\n",
      n, order, steps, t_expansion, t_bitflip, t_gpubatch, seed);

  // ---- fault-free reference ------------------------------------------------
  GravitySimulation reference =
      make_simulation(base_config(order, /*obs=*/false), n);
  reference.run(steps);

  // ---- repair run: every surface armed, every corruption repaired locally --
  SimulationConfig rep_cfg = base_config(order, /*obs=*/false);
  rep_cfg.fmm.sdc.expansion_checks = true;
  rep_cfg.fmm.sdc.expansion_reaggregation = true;
  rep_cfg.fmm.sdc.p2p_checks = true;
  rep_cfg.fmm.sdc.p2p_verify_stride = 16;
  rep_cfg.faults.sdc_expansion(t_expansion)
      .bit_flip(t_bitflip)
      .sdc_gpu_batch(t_gpubatch);
  rep_cfg.fault_seed = static_cast<std::uint64_t>(seed);
  rep_cfg.resilience.audit.interval = 1;
  rep_cfg.resilience.checkpoint_interval = steps / 4;
  rep_cfg.resilience.sdc_repair = true;
  GravitySimulation repair = make_simulation(rep_cfg, n);

  SdcReport rtally;
  for (int i = 0; i < steps; ++i) {
    const StepRecord rec = repair.step();
    rtally.injected += rec.sdc_injected;
    rtally.detected += rec.sdc_detected;
    rtally.repaired += rec.sdc_repaired;
    rtally.unrepaired += rec.sdc_unrepaired;
  }
  const bool repair_identical =
      same_bodies(reference.bodies(), repair.bodies());
  std::printf(
      "repair run:   injected=%d detected=%d repaired=%d unrepaired=%d "
      "rollbacks=%d, final state %s reference\n",
      rtally.injected, rtally.detected, rtally.repaired, rtally.unrepaired,
      repair.rollbacks(),
      repair_identical ? "IDENTICAL to" : "DIVERGED from");
  const bool repair_ok = rtally.injected == 3 && rtally.detected == 3 &&
                         rtally.repaired == 3 && rtally.unrepaired == 0 &&
                         repair.rollbacks() == 0 && repair_identical;

  // ---- escalate run: P2P checksums disarmed, tripwire -> ladder -> rollback
  SimulationConfig esc_cfg = base_config(order, /*obs=*/true);
  esc_cfg.fmm.sdc.expansion_checks = true;  // expansion flip still repaired
  esc_cfg.faults.sdc_expansion(t_expansion)
      .bit_flip(t_bitflip)
      .sdc_gpu_batch(t_gpubatch);
  esc_cfg.fault_seed = static_cast<std::uint64_t>(seed);
  esc_cfg.resilience.audit.interval = 1;
  esc_cfg.resilience.audit.force_samples = 0;
  // Sits an order of magnitude above the FMM's intrinsic asymmetry
  // (~1e-5 relative at order 3) and well below the drift a flipped
  // high bit of one gradient component produces (~2.5e-4).
  esc_cfg.resilience.audit.momentum_rel_tol = 1e-4;
  esc_cfg.resilience.checkpoint_interval = steps / 4;
  esc_cfg.resilience.sdc_repair = true;
  GravitySimulation escal = make_simulation(esc_cfg, n);

  Table table({"step", "injected", "detected", "repaired", "unrepaired",
               "escalated", "audit_failed", "rolled_back", "restored",
               "compute_s"});
  table.mirror_csv(out + "/sdc_recovery.csv");
  SdcReport etally;
  bool escalated = false;
  int guard = 4 * (steps + 8);
  while (escal.steps_taken() < steps && guard-- > 0) {
    const StepRecord rec = escal.step();
    etally.injected += rec.sdc_injected;
    etally.detected += rec.sdc_detected;
    etally.repaired += rec.sdc_repaired;
    etally.unrepaired += rec.sdc_unrepaired;
    escalated |= rec.sdc_escalated;
    table.add_row({Table::integer(rec.step), Table::integer(rec.sdc_injected),
                   Table::integer(rec.sdc_detected),
                   Table::integer(rec.sdc_repaired),
                   Table::integer(rec.sdc_unrepaired),
                   Table::integer(rec.sdc_escalated ? 1 : 0),
                   Table::integer(rec.audit_failed ? 1 : 0),
                   Table::integer(rec.rolled_back ? 1 : 0),
                   Table::integer(rec.restored_step),
                   Table::num(rec.compute_seconds, 6)});
  }
  table.print("sdc recovery | escalate-run arc (full series in "
              "sdc_recovery.csv)");

  const bool esc_finished = escal.steps_taken() == steps;
  const bool esc_identical =
      same_bodies(reference.bodies(), escal.bodies());
  std::printf(
      "escalate run: injected=%d detected=%d repaired=%d unrepaired=%d "
      "escalated=%s sdc_rollbacks=%d, final state %s reference\n",
      etally.injected, etally.detected, etally.repaired, etally.unrepaired,
      escalated ? "yes" : "NO", escal.sdc_rollbacks(),
      esc_identical ? "IDENTICAL to" : "DIVERGED from");
  const bool escal_ok = esc_finished && etally.injected == 3 &&
                        etally.repaired >= 2 && escalated &&
                        escal.sdc_rollbacks() == 1 && esc_identical;

  const std::string trace_path = out + "/sdc_recovery_trace.json";
  const std::string metrics_path = out + "/sdc_recovery_metrics.csv";
  const bool trace_ok =
      escal.trace() && escal.trace()->write_json_file(trace_path);
  const bool metrics_ok =
      escal.metrics() && escal.metrics()->write_csv_file(metrics_path);
  std::printf("\ntrace -> %s%s\nmetrics -> %s%s\n", trace_path.c_str(),
              trace_ok ? "" : " (WRITE FAILED)", metrics_path.c_str(),
              metrics_ok ? "" : " (WRITE FAILED)");

  const bool ok = repair_ok && escal_ok && trace_ok && metrics_ok;
  if (!ok) std::fprintf(stderr, "sdc_recovery: FAILED\n");
  return ok ? 0 : 1;
}
