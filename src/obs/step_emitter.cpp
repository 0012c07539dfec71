#include "obs/step_emitter.hpp"

#include <algorithm>

#include "gpusim/transfer.hpp"

namespace afmm {

namespace {

constexpr int kV = TraceRecorder::kVirtualPid;
constexpr int kW = TraceRecorder::kWallPid;

void emit_trace(TraceRecorder& tr, const StepObsInput& in) {
  const StepRecord& rec = *in.rec;
  const ObservedStepTimes& t = *in.times;
  const double t0 = in.t0;
  const double dur = rec.total_seconds();
  const double t_solve = t0 + rec.lb_seconds;
  const double t_end = t0 + dur;
  // Tenant-prefixed track name ("alice/cpu"); identity when untagged, so a
  // single-tenant trace is byte-identical to the pre-tenant schema.
  const auto T = [&in](std::string track) {
    return in.tenant.empty() ? track : in.tenant + "/" + track;
  };

  // ---- step container -----------------------------------------------------
  tr.span(kV, T("step"), "step", "step", t0, dur,
          {TraceArg::num("step", rec.step), TraceArg::num("S", rec.S),
           TraceArg::str("state", to_string(rec.state)),
           TraceArg::num("compute_seconds", rec.compute_seconds),
           TraceArg::num("lb_seconds", rec.lb_seconds)});

  // ---- tree maintenance + balancing ---------------------------------------
  if (in.rebin_seconds > 0.0)
    tr.span(kV, T("tree"), "rebin", "tree", t0, in.rebin_seconds);
  const double balance_seconds = rec.lb_seconds - in.rebin_seconds;
  if (balance_seconds > 0.0 || rec.rebuilt || rec.enforce_ops || rec.fgo_ops)
    tr.span(kV, T("balancer"), rec.rebuilt ? "balance+rebuild" : "balance",
            "balancer", t0 + in.rebin_seconds, std::max(0.0, balance_seconds),
            {TraceArg::num("enforce_ops", rec.enforce_ops),
             TraceArg::num("fgo_ops", rec.fgo_ops),
             TraceArg::num("rebuilt", rec.rebuilt ? 1 : 0)});
  // One state marker per step so every trace carries the balancer trajectory
  // even when the balancer itself has no recorder attached.
  tr.instant(kV, T("balancer"), to_string(rec.state), "balancer", t0,
             {TraceArg::num("S", rec.S),
              TraceArg::num("capability_shift", rec.capability_shift ? 1 : 0)});
  if (rec.rebuilt)
    tr.instant(kV, T("tree"), "rebuild", "tree", t0 + in.rebin_seconds,
               {TraceArg::num("S", rec.S),
                TraceArg::num("nodes", rec.stats.nodes)});
  if (rec.enforce_ops > 0)
    tr.instant(kV, T("tree"), "enforce_S", "tree", t0 + in.rebin_seconds,
               {TraceArg::num("ops", rec.enforce_ops)});

  // ---- far field (virtual CPU) --------------------------------------------
  tr.span(kV, T("cpu"), "far-field", "expansion", t_solve, t.cpu_seconds,
          {TraceArg::num("m2l_pairs",
                         static_cast<double>(rec.stats.m2l_pairs)),
           TraceArg::num("cores", rec.effective_cores)});
  // Per-operation thread-second totals, laid out sequentially: the track
  // shows each operator's share of the far-field work, not a schedule.
  struct OpShare {
    const char* name;
    double seconds;
  };
  const OpShare ops[] = {{"P2M", t.t_p2m}, {"M2M", t.t_m2m},
                         {"M2L", t.t_m2l}, {"L2L", t.t_l2l},
                         {"L2P", t.t_l2p}, {"M2P", t.t_m2p},
                         {"P2L", t.t_p2l}};
  double cursor = t_solve;
  for (const auto& op : ops) {
    if (op.seconds <= 0.0) continue;
    tr.span(kV, T("cpu ops (thread-seconds)"), op.name, "expansion", cursor,
            op.seconds);
    cursor += op.seconds;
  }

  // ---- near field: per-GPU kernels + transfers, or the CPU fallback -------
  if (rec.cpu_fallback) {
    tr.span(kV, T("cpu"), "P2P (CPU fallback)", "p2p", t_solve + t.cpu_seconds,
            t.cpu_p2p_seconds,
            {TraceArg::num("interactions",
                           static_cast<double>(rec.stats.p2p_interactions))});
  } else if (in.gpu && in.link) {
    const StepTimeline& tl = in.gpu->timeline;
    for (std::size_t g = 0; g < in.gpu->per_gpu.size(); ++g) {
      const GpuKernelTiming& k = in.gpu->per_gpu[g];
      const GpuTransferShape shape = g < in.gpu->transfers.size()
                                         ? in.gpu->transfers[g]
                                         : GpuTransferShape{};
      if (k.seconds <= 0.0 && k.interactions == 0 &&
          shape.upload_bytes == 0)
        continue;  // dead or unused device: no track
      const std::string track = T("gpu" + std::to_string(g));
      const double upload = transfer_seconds(*in.link, shape.upload_bytes);
      const double kernel_start = t_solve + tl.launch_seconds + upload;
      tr.span(kV, track, "upload", "transfer", t_solve + tl.launch_seconds,
              upload,
              {TraceArg::num("bytes",
                             static_cast<double>(shape.upload_bytes))});
      tr.span(kV, track, "P2P kernel", "p2p", kernel_start, k.seconds,
              {TraceArg::num("interactions",
                             static_cast<double>(k.interactions)),
               TraceArg::num("blocks", static_cast<double>(k.blocks)),
               TraceArg::num("busy_lane_fraction", k.busy_lane_fraction)});
      const double gather_start =
          t_solve + tl.launch_seconds +
          std::max(t.cpu_seconds, tl.gpu_done_seconds);
      tr.span(kV, track, "download", "transfer", gather_start,
              transfer_seconds(*in.link, shape.download_bytes),
              {TraceArg::num("bytes",
                             static_cast<double>(shape.download_bytes))});
    }
    if (tl.retries > 0)
      tr.instant(kV, T("transfer"), "retries", "transfer", t_solve,
                 {TraceArg::num("count", tl.retries),
                  TraceArg::num("retry_seconds", tl.retry_seconds)});
  }

  // ---- faults applied before this solve -----------------------------------
  for (const auto& f : in.faults)
    tr.instant(kV, T("faults"), to_string(f.kind), "fault", t_solve,
               {TraceArg::str("what", describe(f)),
                TraceArg::num("device", f.device),
                TraceArg::num("step", f.step)});

  // ---- resilience (checkpoint / audit / rollback / watchdog) --------------
  if (rec.audited)
    tr.instant(kV, T("state"), rec.audit_failed ? "audit: FAILED" : "audit: ok",
               "state", t_end, {TraceArg::num("ok", rec.audit_failed ? 0 : 1)});
  if (rec.watchdog_tripped)
    tr.instant(kV, T("state"), "watchdog-trip", "state", t_end);
  if (rec.rolled_back)
    tr.instant(kV, T("state"), "rollback", "state", t_end,
               {TraceArg::num("restored_step", rec.restored_step)});
  if (rec.checkpointed)
    tr.instant(kV, T("state"), "checkpoint", "state", t_end);

  // ---- silent-data-corruption ladder (sdc/) -------------------------------
  // Instants only when something happened, so fault-free traces are
  // byte-identical with detection on or off.
  if (rec.sdc_detected > 0)
    tr.instant(kV, T("state"), "sdc-detect", "sdc", t_end,
               {TraceArg::num("count", rec.sdc_detected)});
  if (rec.sdc_repaired > 0)
    tr.instant(kV, T("state"), "sdc-repair", "sdc", t_end,
               {TraceArg::num("count", rec.sdc_repaired)});
  if (rec.sdc_escalated)
    tr.instant(kV, T("state"), "sdc-escalate", "sdc", t_end,
               {TraceArg::num("unrepaired", rec.sdc_unrepaired)});

  // ---- per-step counters (step charts in Perfetto) ------------------------
  tr.counter(kV, T("counters"), "S", t0, rec.S);
  tr.counter(kV, T("counters"), "compute_seconds", t0, rec.compute_seconds);
  tr.counter(kV, T("counters"), "alive_gpus", t0, rec.alive_gpus);

  // ---- real wall-clock per-op measurements (separate time domain) ---------
  if (in.wall_ops) {
    double wall_cursor = t0;
    for (int op = 0; op < static_cast<int>(FmmOp::kCount); ++op) {
      const auto totals = in.wall_ops->totals(static_cast<FmmOp>(op));
      if (totals.count == 0) continue;
      tr.span(kW, T("cpu ops (wall)"), to_string(static_cast<FmmOp>(op)),
              "expansion-wall", wall_cursor, totals.seconds,
              {TraceArg::num("count", static_cast<double>(totals.count)),
               TraceArg::num("coefficient", totals.coefficient())});
      wall_cursor += totals.seconds;
    }
  }
}

// Registry facade applying the tenant name prefix ("tenant.alice.lb.S")
// once, so the emission body below reads in the canonical metric names.
struct TenantMetrics {
  MetricsRegistry& reg;
  const std::string& tenant;
  std::string name(const char* n) const {
    return tenant.empty() ? std::string(n) : "tenant." + tenant + "." + n;
  }
  void set_gauge(const char* n, double v) { reg.set_gauge(name(n), v); }
  void add_counter(const char* n, double d) { reg.add_counter(name(n), d); }
  void observe(const char* n, double v) { reg.observe(name(n), v); }
  void define_histogram(const char* n, std::vector<double> bounds) {
    reg.define_histogram(name(n), std::move(bounds));
  }
};

void emit_metrics(MetricsRegistry& mr, const StepObsInput& in) {
  TenantMetrics m{mr, in.tenant};
  const StepRecord& rec = *in.rec;
  m.set_gauge("step.total_seconds", rec.total_seconds());
  m.set_gauge("step.compute_seconds", rec.compute_seconds);
  m.set_gauge("step.cpu_seconds", rec.cpu_seconds);
  m.set_gauge("step.gpu_seconds", rec.gpu_seconds);
  m.set_gauge("step.lb_seconds", rec.lb_seconds);
  m.set_gauge("predicted.far_seconds", rec.predicted_far_seconds);
  m.set_gauge("predicted.near_seconds", rec.predicted_near_seconds);
  m.set_gauge("lb.S", rec.S);
  m.set_gauge("lb.state", static_cast<double>(static_cast<int>(rec.state)));
  m.set_gauge("lb.rebuilt", rec.rebuilt ? 1 : 0);
  m.set_gauge("lb.enforce_ops", rec.enforce_ops);
  m.set_gauge("lb.fgo_ops", rec.fgo_ops);
  m.set_gauge("lb.capability_shift", rec.capability_shift ? 1 : 0);
  m.set_gauge("tree.nodes", rec.stats.nodes);
  m.set_gauge("tree.effective_leaves", rec.stats.effective_leaves);
  m.set_gauge("tree.depth", rec.stats.depth);
  m.set_gauge("tree.m2l_pairs", static_cast<double>(rec.stats.m2l_pairs));
  m.set_gauge("tree.p2p_interactions",
              static_cast<double>(rec.stats.p2p_interactions));
  m.set_gauge("health.alive_gpus", rec.alive_gpus);
  m.set_gauge("health.gpu_capability", rec.gpu_capability);
  m.set_gauge("health.effective_cores", rec.effective_cores);
  m.set_gauge("health.cpu_fallback", rec.cpu_fallback ? 1 : 0);
  m.set_gauge("health.transfer_retries", rec.transfer_retries);
  m.set_gauge("resilience.audited", rec.audited ? 1 : 0);
  m.set_gauge("resilience.audit_failed", rec.audit_failed ? 1 : 0);
  m.set_gauge("resilience.watchdog_tripped", rec.watchdog_tripped ? 1 : 0);
  m.set_gauge("resilience.rolled_back", rec.rolled_back ? 1 : 0);
  m.set_gauge("resilience.checkpointed", rec.checkpointed ? 1 : 0);
  m.set_gauge("cache.builds", static_cast<double>(in.cache_builds));
  m.set_gauge("cache.hits", static_cast<double>(in.cache_hits));
  m.set_gauge("cache.refreshes", static_cast<double>(in.cache_refreshes));
  m.add_counter("faults.fired", rec.faults_fired);
  m.set_gauge("sdc.injected", rec.sdc_injected);
  m.set_gauge("sdc.detected", rec.sdc_detected);
  m.set_gauge("sdc.repaired", rec.sdc_repaired);
  m.set_gauge("sdc.escalated", rec.sdc_escalated ? 1 : 0);
  m.add_counter("sdc.injected_total", rec.sdc_injected);
  m.add_counter("sdc.detected_total", rec.sdc_detected);
  m.add_counter("sdc.repairs_total", rec.sdc_repaired);
  m.add_counter("sdc.rollbacks_total",
                rec.sdc_escalated && rec.rolled_back ? 1.0 : 0.0);
  m.observe("step.compute_seconds.hist", rec.compute_seconds);
  m.observe("step.lb_seconds.hist", rec.lb_seconds);
  mr.sample(rec.step);
}

}  // namespace

void register_step_metrics(MetricsRegistry& metrics,
                           const std::string& tenant) {
  TenantMetrics m{metrics, tenant};
  m.define_histogram(
      "step.compute_seconds.hist",
      {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0});
  m.define_histogram(
      "step.lb_seconds.hist",
      {1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0});
  m.add_counter("faults.fired", 0.0);
  m.add_counter("sdc.injected_total", 0.0);
  m.add_counter("sdc.detected_total", 0.0);
  m.add_counter("sdc.repairs_total", 0.0);
  m.add_counter("sdc.rollbacks_total", 0.0);
}

double emit_step(TraceRecorder* trace, MetricsRegistry* metrics,
                 const StepObsInput& in) {
  if (trace) emit_trace(*trace, in);
  if (metrics) emit_metrics(*metrics, in);
  return in.rec->total_seconds();
}

}  // namespace afmm
