// Translates one simulation step's results into trace events and metric
// samples (the schema documented in DESIGN.md section 9).
//
// The emitter is strictly read-only over the simulation's state: it runs
// after the step's physics and balancing completed, so enabling
// observability can never perturb a trajectory. All virtual-time spans are
// reconstructed from the machine model's deterministic outputs; the optional
// wall-time process carries the real OpTimers measurements when the solver
// collected them.
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "gpusim/p2p_executor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/op_timers.hpp"

namespace afmm {

// Everything a step emission needs, bundled so simulation loops with
// different record layouts can reuse the emitter.
struct StepObsInput {
  const StepRecord* rec = nullptr;             // required
  const ObservedStepTimes* times = nullptr;    // required
  const GpuRunResult* gpu = nullptr;           // optional (numerics-free loops)
  const TransferLinkConfig* link = nullptr;    // required when gpu is set
  std::vector<FaultEvent> faults;              // events fired before the solve
  const OpTimers* wall_ops = nullptr;          // optional wall-clock per-op times
  double t0 = 0.0;                             // virtual time at step start
  double rebin_seconds = 0.0;                  // tree maintenance share of lb
  // Interaction-list cache cumulative instrumentation.
  std::uint64_t cache_builds = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_refreshes = 0;
};

// Emit the step into either sink; null sinks are skipped. Returns the
// virtual duration of the step (rec->total_seconds()), which the caller adds
// to its virtual clock.
double emit_step(TraceRecorder* trace, MetricsRegistry* metrics,
                 const StepObsInput& in);

// Registers the fixed histogram buckets the step emitter observes into.
// Idempotent; called once by the simulation when metrics are enabled.
void register_step_metrics(MetricsRegistry& metrics);

}  // namespace afmm
