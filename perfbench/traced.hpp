// The traced run's simulation: the engine's step loop re-driven from the
// benchmark through the same public entry points SimulationEngine calls, in
// the same order, with a span around each call.
//
//   core.integrate               the problem's pre_solve / post_solve (and,
//                                for Stokes, the force model)
//   octree.rebin                 AdaptiveOctree::rebin
//   balance.post_step            LoadBalancer::post_step (rebuild, Enforce_S
//                                and fine-grained ops happen inside)
//   octree.traversal             InteractionListCache::get
//   expansion.evaluate           HarmonicFarField::evaluate
//   gpusim.run_p2p               run_p2p
//   machine.simulate_far_field   NodeSimulator::simulate_far_field
//   obs.emit                     emit_step (when trace / metrics are on)
//
// Set-up adds octree.build (AdaptiveOctree::build) and setup.priming (the
// priming solve). The caller adds state.audit / state.checkpoint spans.
//
// The sequence of calls and their arguments are those of core/engine.cpp,
// core/problems.cpp and core/fmm_solver.cpp with resilience off, overlap off
// and no fault schedule, so the trajectory must equal the untraced engine's
// bit for bit; the benchmark compares fingerprints and fails on a mismatch.
#pragma once

#include <memory>
#include <numbers>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/fmm_solver.hpp"
#include "obs/step_emitter.hpp"
#include "sdc/sdc.hpp"
#include "spans.hpp"
#include "state/checkpoint.hpp"
#include "workloads.hpp"

namespace perfbench {

class TracedSimulation {
 public:
  // `timers` (may be null) receives HarmonicFarField's per-op thread-seconds,
  // as the solvers collect them under FmmConfig::collect_real_timings.
  TracedSimulation(const Workload& w, const afmm::ParticleSet& bodies,
                   SpanLog& log, afmm::OpTimers* timers)
      : w_(w),
        config_(w.engine()),
        log_(log),
        timers_(timers),
        node_(w.node()),
        far_(config_.fmm),
        gravity_kernel_(w.gravity.softening),
        stokes_kernel_(w.stokes.epsilon),
        force_model_(w.force_model()),
        balancer_(config_.balancer, config_.fmm.traversal),
        injector_(config_.faults, config_.fault_seed),
        bodies_(bodies) {
    balancer_.set_list_cache(&cache_);
    if (w_.physics == Physics::kStokes) {
      bodies_.velocities.assign(bodies_.size(), Vec3{});
      bodies_.masses.clear();
      forces_.assign(bodies_.size(), Vec3{});
    }
  }

  // SimulationEngine::prepare(): tree at the balancer's initial S, priming
  // solve, observability sinks.
  void prepare() {
    {
      SpanLog::Scope s(&log_, "octree.build");
      afmm::TreeConfig tc = config_.tree;
      tc.leaf_capacity = config_.balancer.initial_S;
      tree_.build(bodies_.positions, tc);
    }
    {
      SpanLog::Scope s(&log_, "setup.priming");
      const Solved solved = solve();
      SpanLog::Scope i(&log_, "core.integrate");
      if (w_.physics == Physics::kGravity) {
        accel_.resize(bodies_.size());
        for (std::size_t k = 0; k < bodies_.size(); ++k)
          accel_[k] = w_.gravity.grav_const * gradient_[k];
        potential_ = std::move(potential_pending_);
      } else {
        for (std::size_t k = 0; k < bodies_.size(); ++k)
          bodies_.velocities[k] = mobility() * velocity_pending_[k];
        refresh_stokes_checksum();
      }
      last_observed_ = solved.times;
    }
    if (config_.obs.trace) trace_ = std::make_unique<afmm::TraceRecorder>();
    if (config_.obs.metrics) {
      metrics_ = std::make_unique<afmm::MetricsRegistry>();
      afmm::register_step_metrics(*metrics_);
    }
    if (trace_) balancer_.set_trace(trace_.get(), &virtual_now_);
  }

  // SimulationEngine::step_core() followed by finish_step_obs().
  afmm::StepRecord step() {
    afmm::StepRecord rec;
    rec.step = step_count_;
    {
      SpanLog::Scope s(&log_, "core.integrate");
      if (w_.physics == Physics::kGravity) {
        const double dt = config_.dt;
        for (std::size_t i = 0; i < bodies_.size(); ++i) {
          bodies_.velocities[i] += 0.5 * dt * accel_[i];
          bodies_.positions[i] += dt * bodies_.velocities[i];
        }
      }
    }
    {
      SpanLog::Scope s(&log_, "octree.rebin");
      tree_.rebin(bodies_.positions);
    }
    const double rebin_s = node_.rebin_seconds(bodies_.size());
    rec.lb_seconds += rebin_s;

    afmm::LbStepReport lb;
    {
      SpanLog::Scope s(&log_, "balance.post_step");
      lb = balancer_.post_step(tree_, bodies_.positions, *last_observed_,
                               node_);
    }
    rec.lb_seconds += lb.lb_seconds;
    rec.S = lb.S;
    rec.state = lb.state_after;
    rec.rebuilt = lb.rebuilt;
    rec.enforce_ops = lb.enforce_ops;
    rec.fgo_ops = lb.fgo_ops;
    rec.capability_shift = lb.capability_shift;

    afmm::MachineHealth& health = node_.health();
    auto fired = injector_.advance_to(step_count_, health);
    rec.faults_fired = static_cast<int>(fired.size());
    rec.alive_gpus = health.num_alive_gpus();
    rec.gpu_capability = health.total_gpu_capability();
    rec.effective_cores = node_.effective_cores();

    const Solved res = solve();
    if (balancer_.cost_model().ready()) {
      rec.predicted_far_seconds = balancer_.cost_model().predict_far(
          res.times.counts, rec.effective_cores);
      rec.predicted_near_seconds =
          balancer_.cost_model().predict_near(res.times.counts);
    }
    {
      SpanLog::Scope s(&log_, "core.integrate");
      const double dt = config_.dt;
      if (w_.physics == Physics::kGravity) {
        for (std::size_t i = 0; i < bodies_.size(); ++i) {
          accel_[i] = w_.gravity.grav_const * gradient_[i];
          bodies_.velocities[i] += 0.5 * dt * accel_[i];
        }
        potential_ = std::move(potential_pending_);
      } else {
        for (std::size_t i = 0; i < bodies_.size(); ++i) {
          bodies_.velocities[i] = mobility() * velocity_pending_[i];
          bodies_.positions[i] += dt * bodies_.velocities[i];
        }
        refresh_stokes_checksum();
      }
    }
    last_observed_ = res.times;
    health.sdc.clear();

    rec.compute_seconds = res.times.compute_seconds();
    rec.cpu_seconds = res.times.cpu_seconds;
    rec.gpu_seconds = res.times.gpu_seconds;
    rec.stats = res.stats;
    rec.cpu_fallback = res.gpu.cpu_fallback;
    rec.transfer_retries = res.times.transfer_retries;
    ++step_count_;

    if (trace_ || metrics_) {
      SpanLog::Scope s(&log_, "obs.emit");
      afmm::StepObsInput in;
      in.rec = &rec;
      in.times = &res.times;
      in.gpu = &res.gpu;
      in.link = &node_.gpus().link;
      in.faults = std::move(fired);
      in.t0 = virtual_now_;
      in.rebin_seconds = rebin_s;
      in.cache_builds = cache_.builds();
      in.cache_hits = cache_.hits();
      in.cache_refreshes = cache_.refreshes();
      virtual_now_ += afmm::emit_step(trace_.get(), metrics_.get(), in);
    }
    return rec;
  }

  // SimulationEngine::run_audit() for the Stokes problem.
  afmm::AuditReport run_audit() const {
    const afmm::AuditConfig& a = config_.resilience.audit;
    afmm::AuditReport report;
    afmm::audit_tree(tree_, balancer_.current_S(), a.leaf_capacity_slack,
                     report);
    afmm::audit_finite(std::span<const Vec3>(bodies_.positions), "position",
                       report);
    afmm::audit_finite(std::span<const Vec3>(bodies_.velocities), "velocity",
                       report);
    afmm::audit_finite(std::span<const Vec3>(forces_), "force", report);
    if (a.force_samples > 0 && !last_solve_positions_.empty())
      afmm::audit_sampled_stokes(last_solve_positions_, forces_,
                                 bodies_.velocities, mobility(),
                                 w_.stokes.epsilon, a.force_samples,
                                 a.force_rel_tol, report);
    if (a.state_checksums)
      afmm::audit_state_checksum(stokes_checksum(), state_checksum_, report);
    afmm::audit_cost_model(balancer_.cost_model(), report);
    return report;
  }

  // SimulationEngine::checkpoint() for the Stokes problem.
  afmm::SimCheckpoint checkpoint() const {
    afmm::SimCheckpoint c;
    c.kind = afmm::SimKind::kStokes;
    c.step = step_count_;
    c.bodies.positions = bodies_.positions;
    c.bodies.velocities = bodies_.velocities;
    c.has_observed = last_observed_.has_value();
    if (last_observed_) c.observed = *last_observed_;
    c.tree = tree_.snapshot();
    c.balancer = balancer_.snapshot();
    c.health = node_.health();
    c.injector = injector_.snapshot();
    return c;
  }

  const std::vector<Vec3>& positions() const { return bodies_.positions; }
  const std::vector<Vec3>& velocities() const { return bodies_.velocities; }
  const afmm::InteractionListCache& list_cache() const { return cache_; }
  afmm::TraceRecorder* trace() { return trace_.get(); }
  afmm::MetricsRegistry* metrics() { return metrics_.get(); }

 private:
  struct Solved {
    afmm::ObservedStepTimes times;
    afmm::GpuRunResult gpu;
    afmm::SolveStats stats;
  };

  double mobility() const {
    return 1.0 / (8.0 * std::numbers::pi_v<double> * w_.stokes.viscosity);
  }
  std::uint64_t stokes_checksum() const {
    std::uint64_t h = afmm::sdc_checksum_bytes(
        bodies_.positions.data(), bodies_.positions.size() * sizeof(Vec3));
    return afmm::sdc_checksum_extend(h, bodies_.velocities.data(),
                                     bodies_.velocities.size() * sizeof(Vec3));
  }
  void refresh_stokes_checksum() { state_checksum_ = stokes_checksum(); }

  Solved solve() {
    if (w_.physics == Physics::kGravity) return solve_gravity();
    {
      SpanLog::Scope s(&log_, "core.integrate");
      force_model_(bodies_.positions, forces_);
    }
    Solved out = solve_stokes();
    last_solve_positions_ = bodies_.positions;
    return out;
  }

  const afmm::InteractionLists& lists() {
    SpanLog::Scope s(&log_, "octree.traversal");
    return cache_.get(tree_, far_.config().traversal);
  }

  template <class Kernel>
  afmm::GpuRunResult near_field(const afmm::InteractionLists& lists,
                                const Kernel& kernel,
                                std::span<const typename Kernel::Source> src,
                                std::span<typename Kernel::Accum> out) {
    SpanLog::Scope s(&log_, "gpusim.run_p2p");
    return afmm::run_p2p(tree_, lists.p2p, kernel, src, tree_.perm(),
                         node_.gpus(), out, &node_.health());
  }

  void far_field(const afmm::InteractionLists& lists,
                 std::span<const std::vector<double>> rhs,
                 std::vector<std::vector<afmm::PointValue>>& out) {
    SpanLog::Scope s(&log_, "expansion.evaluate");
    far_.evaluate(tree_, lists, rhs, out, timers_);
  }

  void far_model(const afmm::InteractionLists& lists, int passes,
                 Solved& res) {
    {
      SpanLog::Scope s(&log_, "machine.simulate_far_field");
      res.times = node_.simulate_far_field(far_.context(), tree_, lists,
                                           passes);
    }
    if (res.gpu.cpu_fallback)
      res.times.cpu_p2p_seconds =
          node_.cpu_p2p_seconds(res.gpu.total_interactions);
    else
      res.times.gpu_seconds = res.gpu.max_kernel_seconds;
    res.times.transfer_retries = res.gpu.timeline.retries;
    res.stats = afmm::make_stats(tree_, lists);
  }

  // GravitySolver::solve.
  Solved solve_gravity() {
    const afmm::InteractionLists& l = lists();
    std::vector<double> q_tree;
    tree_.gather(std::span<const double>(bodies_.masses), q_tree);
    Solved res;
    std::vector<std::vector<double>> rhs{q_tree};
    std::vector<std::vector<afmm::PointValue>> far_out;
    far_field(l, rhs, far_out);

    const auto pos = tree_.sorted_positions();
    const std::size_t n = tree_.num_bodies();
    std::vector<afmm::GravitySource> sources(n);
    for (std::size_t i = 0; i < n; ++i) sources[i] = {pos[i], q_tree[i]};
    std::vector<afmm::GravityAccum> near(n);
    res.gpu = near_field(l, gravity_kernel_,
                         std::span<const afmm::GravitySource>(sources),
                         std::span<afmm::GravityAccum>(near));

    potential_pending_.assign(n, 0.0);
    gradient_.assign(n, Vec3{});
    const auto perm = tree_.perm();
    for (std::size_t t = 0; t < n; ++t) {
      const auto o = perm[t];
      potential_pending_[o] = far_out[0][t].potential + near[t].pot;
      gradient_[o] = far_out[0][t].gradient + near[t].grad;
    }
    far_model(l, 1, res);
    return res;
  }

  // StokesletSolver::solve.
  Solved solve_stokes() {
    const afmm::InteractionLists& l = lists();
    const auto pos = tree_.sorted_positions();
    const auto perm = tree_.perm();
    const std::size_t n = tree_.num_bodies();
    std::vector<std::vector<double>> rhs(4, std::vector<double>(n));
    for (std::size_t t = 0; t < n; ++t) {
      const Vec3 f = forces_[perm[t]];
      rhs[0][t] = f.x;
      rhs[1][t] = f.y;
      rhs[2][t] = f.z;
      rhs[3][t] = afmm::dot(pos[t], f);
    }
    Solved res;
    std::vector<std::vector<afmm::PointValue>> far_out;
    far_field(l, rhs, far_out);

    std::vector<afmm::StokesletSource> sources(n);
    for (std::size_t t = 0; t < n; ++t) sources[t] = {pos[t], forces_[perm[t]]};
    std::vector<afmm::StokesletAccum> near(n);
    res.gpu = near_field(l, stokes_kernel_,
                         std::span<const afmm::StokesletSource>(sources),
                         std::span<afmm::StokesletAccum>(near));

    velocity_pending_.assign(n, Vec3{});
    for (std::size_t t = 0; t < n; ++t) {
      const double phi[3] = {far_out[0][t].potential,
                             far_out[1][t].potential,
                             far_out[2][t].potential};
      const Vec3 grad_phi[3] = {far_out[0][t].gradient,
                                far_out[1][t].gradient,
                                far_out[2][t].gradient};
      const Vec3 u_far = afmm::combine_harmonic_passes(
          pos[t], phi, grad_phi, far_out[3][t].gradient);
      velocity_pending_[perm[t]] = u_far + near[t].u;
    }
    far_model(l, 4, res);
    return res;
  }

  const Workload& w_;
  const afmm::EngineConfig& config_;
  SpanLog& log_;
  afmm::OpTimers* timers_;
  afmm::NodeSimulator node_;
  afmm::HarmonicFarField far_;
  afmm::GravityKernel gravity_kernel_;
  afmm::StokesletKernel stokes_kernel_;
  afmm::ForceModel force_model_;
  afmm::InteractionListCache cache_;
  afmm::LoadBalancer balancer_;
  afmm::FaultInjector injector_;
  afmm::AdaptiveOctree tree_;
  std::optional<afmm::ObservedStepTimes> last_observed_;
  int step_count_ = 0;

  afmm::ParticleSet bodies_;  // Stokes: positions + velocities only
  std::vector<Vec3> accel_;
  std::vector<double> potential_;
  std::vector<Vec3> forces_;
  std::vector<Vec3> last_solve_positions_;
  std::uint64_t state_checksum_ = 0;
  // A solve's result between solve and the closing integration.
  std::vector<double> potential_pending_;
  std::vector<Vec3> gradient_;
  std::vector<Vec3> velocity_pending_;

  std::unique_ptr<afmm::TraceRecorder> trace_;
  std::unique_ptr<afmm::MetricsRegistry> metrics_;
  double virtual_now_ = 0.0;
};

}  // namespace perfbench
