#include "core/engine.hpp"

#include <stdexcept>
#include <string>

#include "core/problems.hpp"
#include "obs/step_emitter.hpp"

namespace afmm {

namespace {

// The localized SDC repair rung only applies when every violation is one the
// Problem can fix by re-deriving state from primary data (checksum mismatch,
// sampled direct-sum / momentum trips, non-finite derived arrays). A
// structural or cost-model violation means the corruption is outside the
// Problem's state and goes straight to rollback.
bool sdc_repairable(const AuditReport& report) {
  if (report.violations.empty()) return false;
  for (const auto& v : report.violations)
    if (v.find("state checksum mismatch") == std::string::npos &&
        v.find("force audit") == std::string::npos &&
        v.find("stokes audit") == std::string::npos &&
        v.find("momentum audit") == std::string::npos &&
        v.find("is not finite") == std::string::npos)
      return false;
  return true;
}

}  // namespace

template <class Problem>
SimulationEngine<Problem>::SimulationEngine(const EngineConfig& config,
                                            Problem problem)
    : SimulationEngine(DeferredInit{}, config, std::move(problem)) {
  prepare();
}

template <class Problem>
SimulationEngine<Problem>::SimulationEngine(DeferredInit,
                                            const EngineConfig& config,
                                            Problem problem)
    : config_(config),
      problem_(std::move(problem)),
      balancer_(config.balancer, config.fmm.traversal),
      injector_(config.faults, config.fault_seed) {
  problem_.set_list_cache(&list_cache_);
  balancer_.set_list_cache(&list_cache_);
}

template <class Problem>
SimulationEngine<Problem>::SimulationEngine(const EngineConfig& config,
                                            Problem problem,
                                            const SimCheckpoint& ckpt)
    : SimulationEngine(DeferredInit{}, config, std::move(problem)) {
  restore(ckpt);
  prepared_ = true;  // the snapshot IS the prepared state
  init_resilience();
  init_obs();
}

template <class Problem>
void SimulationEngine<Problem>::prepare() {
  if (prepared_) return;
  prepared_ = true;
  TreeConfig tc = config_.tree;
  tc.leaf_capacity = config_.balancer.initial_S;
  tree_.build(problem_.positions(), tc);
  initial_solve();
  init_resilience();
  init_obs();
}

template <class Problem>
void SimulationEngine<Problem>::init_obs() {
  if (config_.obs.trace && !ext_trace_)
    trace_ = std::make_unique<TraceRecorder>();
  if (config_.obs.metrics && !ext_metrics_) {
    metrics_ = std::make_unique<MetricsRegistry>();
    register_step_metrics(*metrics_);
  }
  if (active_trace()) balancer_.set_trace(active_trace(), &virtual_now_);
}

template <class Problem>
void SimulationEngine<Problem>::init_resilience() {
  const ResilienceConfig& rz = config_.resilience;
  if (!rz.enabled()) return;
  watchdog_ = StepWatchdog(rz.watchdog);
  if (!rz.checkpoint_dir.empty()) {
    std::string owner = rz.checkpoint_owner;
    if (owner.empty()) {
      // No explicit namespace: claim the first free one for this dir so
      // engines sharing a checkpoint_dir in one process never rotate each
      // other's snapshots. The first claimant keeps the legacy bare names
      // (a later process resuming from this dir finds them unchanged).
      owner_claim_ = CheckpointOwnerClaim::claim(rz.checkpoint_dir);
      owner = owner_claim_.owner();
    }
    store_.emplace(rz.checkpoint_dir, rz.checkpoint_keep, owner);
  }
  // Seed the rollback target so recovery works before the first scheduled
  // checkpoint. For a restored run this re-snapshots the restored state.
  last_good_ = checkpoint();
  if (store_ && rz.checkpoint_interval > 0) store_->save(*last_good_);
}

template <class Problem>
void SimulationEngine<Problem>::set_external_obs(TraceRecorder* trace,
                                                 MetricsRegistry* metrics,
                                                 std::string tenant) {
  if (first_step_done_)
    throw std::logic_error(
        "set_external_obs must be called before the first step taken on "
        "this engine");
  if (!valid_store_owner(tenant))
    throw std::invalid_argument("tenant '" + tenant +
                                "' invalid: only [A-Za-z0-9.-] allowed");
  ext_trace_ = trace;
  ext_metrics_ = metrics;
  tenant_ = std::move(tenant);
  if (ext_metrics_) register_step_metrics(*ext_metrics_, tenant_);
  // A prepared engine already wired the balancer to its (possibly null) own
  // recorder; re-point it at the sink now in effect.
  if (prepared_ && active_trace())
    balancer_.set_trace(active_trace(), &virtual_now_);
}

template <class Problem>
double SimulationEngine<Problem>::predicted_step_seconds() const {
  if (!prepared_ || !last_observed_) return 1e-3;  // nominal pre-solve guess
  const CostModel& cm = balancer_.cost_model();
  if (cm.ready())
    return cm.predict_far(last_observed_->counts,
                          problem_.node().effective_cores()) +
           cm.predict_near(last_observed_->counts);
  return last_observed_->compute_seconds();
}

template <class Problem>
void SimulationEngine<Problem>::initial_solve() {
  last_observed_ = problem_.initial_solve(tree_).times;
}

template <class Problem>
StepRecord SimulationEngine<Problem>::step_once() {
  prepare();
  first_step_done_ = true;
  return step_guarded();
}

template <class Problem>
StepRecord SimulationEngine<Problem>::step_guarded() {
  const ResilienceConfig& rz = config_.resilience;
  if (!rz.enabled()) {
    StepRecord rec = step_core();
    finish_step_obs(rec);
    return rec;
  }

  watchdog_.arm();
  StepRecord rec = step_core();
  rec.watchdog_tripped = watchdog_.tripped(rec.total_seconds());

  // Every audit / checkpoint below only READS simulation state, so a healthy
  // resilient run stays bit-identical to the same run without resilience.
  const bool checkpoint_due = rz.checkpoint_interval > 0 &&
                              step_count_ % rz.checkpoint_interval == 0;
  const bool audit_due =
      (rz.audit.interval > 0 && step_count_ % rz.audit.interval == 0) ||
      checkpoint_due;  // never snapshot state that has not passed an audit
  bool failed = rec.watchdog_tripped;
  if (rec.sdc_unrepaired > 0) {
    // An in-solve detector caught a corruption its local rung could not fix
    // bit-exactly; the result is untrustworthy, escalate.
    rec.sdc_escalated = true;
    failed = true;
  }
  if (!failed && audit_due) {
    rec.audited = true;
    const AuditReport report = run_audit();
    rec.audit_failed = !report.ok();
    if (rec.audit_failed && rz.sdc_repair && sdc_repairable(report)) {
      // Repair ladder, middle rung: re-derive the Problem's derived arrays
      // from primary state, then re-audit against the stored (clean)
      // checksum to prove the repair is bit-exact. Only a failed proof
      // escalates to the rollback rung below.
      ++rec.sdc_detected;
      if (problem_.repair_derived(tree_) && run_audit().ok()) {
        rec.audit_failed = false;
        ++rec.sdc_repaired;
      } else {
        ++rec.sdc_unrepaired;
        rec.sdc_escalated = true;
      }
    }
    failed = rec.audit_failed;
  }
  if (failed && rz.rollback_on_failure) {
    roll_back(rec);
    if (rec.rolled_back && rec.sdc_escalated) ++sdc_rollbacks_;
  } else if (!failed && checkpoint_due) {
    last_good_ = checkpoint();
    if (store_) store_->save(*last_good_);
    rec.checkpointed = true;
  }
  finish_step_obs(rec);
  return rec;
}

template <class Problem>
void SimulationEngine<Problem>::finish_step_obs(const StepRecord& rec) {
  if (!pending_obs_) return;
  StepObsInput in;
  in.rec = &rec;
  in.times = &pending_obs_->times;
  in.gpu = &pending_obs_->gpu;
  in.link = &problem_.node().gpus().link;
  in.faults = std::move(pending_obs_->faults);
  in.wall_ops = pending_obs_->wall.get();
  in.t0 = virtual_now_;
  in.rebin_seconds = pending_obs_->rebin_seconds;
  in.cache_builds = list_cache_.builds();
  in.cache_hits = list_cache_.hits();
  in.cache_refreshes = list_cache_.refreshes();
  in.tenant = tenant_;
  virtual_now_ += emit_step(active_trace(), active_metrics(), in);
  pending_obs_.reset();
}

template <class Problem>
StepRecord SimulationEngine<Problem>::step_core() {
  StepRecord rec;
  rec.step = step_count_;

  problem_.pre_solve(config_.dt);

  // Maintenance: bodies moved, so re-bin them into the current structure;
  // the balancer may then rebuild / enforce / fine-tune.
  tree_.rebin(problem_.positions());
  const double rebin_s = problem_.node().rebin_seconds(problem_.size());
  rec.lb_seconds += rebin_s;

  const auto lb = balancer_.post_step(tree_, problem_.positions(),
                                      *last_observed_, problem_.node());
  rec.lb_seconds += lb.lb_seconds;
  rec.S = lb.S;
  rec.state = lb.state_after;
  rec.rebuilt = lb.rebuilt;
  rec.enforce_ops = lb.enforce_ops;
  rec.fgo_ops = lb.fgo_ops;
  rec.capability_shift = lb.capability_shift;

  // Faults for this step fire after balancing, before the solve: the solve
  // runs on the degraded machine and the balancer reacts next step.
  MachineHealth& health = problem_.node().health();
  auto fired = injector_.advance_to(step_count_, health);
  rec.faults_fired = static_cast<int>(fired.size());
  rec.alive_gpus = health.num_alive_gpus();
  rec.gpu_capability = health.total_gpu_capability();
  rec.effective_cores = problem_.node().effective_cores();

  const SolveOutcome res = problem_.solve(tree_);
  // Honest predictions: the model has only digested times through the
  // previous step, so these are what it would have forecast for this one.
  if (balancer_.cost_model().ready()) {
    rec.predicted_far_seconds =
        balancer_.cost_model().predict_far(res.times.counts,
                                           rec.effective_cores);
    rec.predicted_near_seconds =
        balancer_.cost_model().predict_near(res.times.counts);
  }
  if (active_trace() || active_metrics()) {
    PendingObs obs;
    obs.times = res.times;
    obs.gpu = res.gpu;
    obs.faults = std::move(fired);
    if (config_.obs.wall_ops) obs.wall = res.real_timings;
    obs.rebin_seconds = rebin_s;
    pending_obs_.emplace(std::move(obs));
  }
  problem_.post_solve(config_.dt);
  last_observed_ = res.times;

  // SDC bookkeeping: fold the solve's injections / ABFT detections / repairs
  // into the record, then apply any pending bit-flip to the state post_solve
  // just finished writing and checksumming -- the stored sum still names the
  // clean bytes, so the next audit's recomputation mismatches.
  rec.sdc_injected += res.sdc.injected;
  rec.sdc_detected += res.sdc.detected;
  rec.sdc_repaired += res.sdc.repaired;
  rec.sdc_unrepaired += res.sdc.unrepaired;
  if (health.sdc.bit_flip) {
    problem_.apply_sdc_bit_flip(health.sdc.bit_flip_seed);
    ++rec.sdc_injected;
  }
  health.sdc.clear();  // pending corruption never outlives its step

  rec.compute_seconds = res.times.compute_seconds();
  rec.cpu_seconds = res.times.cpu_seconds;
  rec.gpu_seconds = res.times.gpu_seconds;
  rec.stats = res.stats;
  rec.cpu_fallback = res.gpu.cpu_fallback;
  rec.transfer_retries = res.times.transfer_retries;

  ++step_count_;
  return rec;
}

template <class Problem>
std::vector<StepRecord> SimulationEngine<Problem>::run(int n) {
  std::vector<StepRecord> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(step_once());
  return out;
}

template <class Problem>
SimCheckpoint SimulationEngine<Problem>::checkpoint() const {
  SimCheckpoint c;
  c.kind = Problem::kKind;
  c.step = step_count_;
  problem_.save_state(c);
  c.has_observed = last_observed_.has_value();
  if (last_observed_) c.observed = *last_observed_;
  c.tree = tree_.snapshot();
  c.balancer = balancer_.snapshot();
  c.health = problem_.node().health();
  c.injector = injector_.snapshot();
  return c;
}

template <class Problem>
void SimulationEngine<Problem>::restore(const SimCheckpoint& ckpt) {
  if (ckpt.kind != Problem::kKind)
    throw std::invalid_argument(std::string("checkpoint is not a ") +
                                Problem::kName + " simulation");
  step_count_ = ckpt.step;
  problem_.load_state(ckpt);
  if (ckpt.has_observed)
    last_observed_ = ckpt.observed;
  else
    last_observed_.reset();
  tree_.restore(ckpt.tree);
  balancer_.restore(ckpt.balancer);
  problem_.node().health() = ckpt.health;
  injector_.restore(ckpt.injector);
}

template <class Problem>
AuditReport SimulationEngine<Problem>::run_audit() const {
  const AuditConfig& a = config_.resilience.audit;
  AuditReport report;
  audit_tree(tree_, balancer_.current_S(), a.leaf_capacity_slack, report);
  problem_.audit_state(a, report);
  audit_cost_model(balancer_.cost_model(), report);
  return report;
}

template <class Problem>
void SimulationEngine<Problem>::roll_back(StepRecord& rec) {
  // The in-memory snapshot is the freshest good state; the on-disk store is
  // the fallback when there is none (e.g. recovery misconfiguration).
  std::optional<SimCheckpoint> good = last_good_;
  if (!good && store_) good = store_->load_latest();
  if (!good) return;  // nowhere to go; the record keeps its failure flags

  restore(*good);
  if (!rec.sdc_escalated) {
    // Fail-stop rollback: the fault may have corrupted memory beyond the
    // structural checks and changed machine capability, so rebuild the tree
    // from scratch at the restored S (cheap insurance) and send the balancer
    // back into its S search to re-learn the machine.
    TreeConfig tc = config_.tree;
    tc.leaf_capacity = balancer_.current_S();
    tree_.build(problem_.positions(), tc);
    balancer_.reenter_search();
  }
  // SDC escalation says nothing about the machine: the data was bad, not the
  // hardware. Keep the checksummed snapshot's tree (its structure descends
  // from the same rebin history as the fault-free run) and the balancer's
  // converged S -- a from-scratch rebuild or renewed search would perturb
  // the association order and break bit-identical replay.
  initial_solve();

  rec.rolled_back = true;
  rec.restored_step = step_count_;
  ++rollbacks_;
}

template <class Problem>
void SimulationEngine<Problem>::corrupt_tree_for_test() {
  // Break a parent link below an effective internal node without bumping the
  // version stamps -- the list cache keeps serving the stale structure,
  // exactly like real in-memory corruption would look.
  for (int id = 0; id < tree_.num_nodes(); ++id) {
    const auto& n = tree_.node(id);
    if (n.has_children && !n.collapsed) {
      tree_.mutable_node_for_test(n.children[0]).parent = -7;
      return;
    }
  }
  // Single-leaf tree: corrupt the root span instead.
  tree_.mutable_node_for_test(tree_.root()).count += 12345;
}

template class SimulationEngine<GravityProblem>;
template class SimulationEngine<StokesProblem>;

}  // namespace afmm
