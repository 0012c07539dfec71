#include "balance/load_balancer.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"

namespace afmm {

const char* to_string(LbState s) {
  switch (s) {
    case LbState::kSearch: return "search";
    case LbState::kIncremental: return "incremental";
    case LbState::kObservation: return "observation";
  }
  return "?";
}

const char* to_string(LbStrategy s) {
  switch (s) {
    case LbStrategy::kStatic: return "static";
    case LbStrategy::kEnforceOnly: return "enforce-only";
    case LbStrategy::kFull: return "full";
  }
  return "?";
}

LoadBalancer::LoadBalancer(const LoadBalancerConfig& config,
                           TraversalConfig traversal)
    : config_(config),
      traversal_(traversal),
      model_(config.smoothing),
      s_(config.initial_S),
      search_lo_(config.min_S),
      search_hi_(config.max_S) {}

LoadBalancerSnapshot LoadBalancer::snapshot() const {
  LoadBalancerSnapshot s;
  s.state = state_;
  s.S = s_;
  s.search_lo = search_lo_;
  s.search_hi = search_hi_;
  s.search_steps = search_steps_;
  s.last_dominant = last_dominant_;
  s.best_compute = best_compute_;
  s.reset_best_next = reset_best_next_;
  s.last_epoch = last_epoch_;
  s.epoch_pending = epoch_pending_;
  s.model = model_.snapshot();
  return s;
}

void LoadBalancer::restore(const LoadBalancerSnapshot& snap) {
  state_ = snap.state;
  s_ = snap.S;
  search_lo_ = snap.search_lo;
  search_hi_ = snap.search_hi;
  search_steps_ = snap.search_steps;
  last_dominant_ = snap.last_dominant;
  best_compute_ = snap.best_compute;
  reset_best_next_ = snap.reset_best_next;
  last_epoch_ = snap.last_epoch;
  epoch_pending_ = snap.epoch_pending;
  model_.restore(snap.model);
}

void LoadBalancer::reenter_search() {
  // Learned coefficients describe a machine (or a run) we no longer trust;
  // drop them and bisect S from scratch. last_epoch_ is deliberately kept:
  // it tracks the health registry, not the balancer's own trajectory.
  model_.reset();
  state_ = LbState::kSearch;
  search_lo_ = config_.min_S;
  search_hi_ = config_.max_S;
  search_steps_ = 0;
  last_dominant_ = 0;
  best_compute_ = -1.0;
  reset_best_next_ = false;
  epoch_pending_ = 0;
}

bool LoadBalancer::gap_ok(const ObservedStepTimes& t) const {
  // Far (expansion) vs near (direct) work, wherever the near field runs:
  // identical to |CPU - GPU| on a healthy machine, and still meaningful when
  // the near field has fallen back to the CPU.
  const double gap = std::abs(t.far_seconds() - t.near_seconds());
  return gap <= std::max(config_.gap_seconds,
                         config_.gap_relative * t.compute_seconds());
}

namespace {

// Symmetric relative divergence in [0, 1]: 0 = exact, 0.5 = off by 2x.
double relative_divergence(double observed, double predicted) {
  const double hi = std::max(observed, predicted);
  if (hi <= 0.0) return 0.0;
  return std::abs(observed - predicted) / hi;
}

}  // namespace

bool LoadBalancer::capability_shift(const ObservedStepTimes& observed,
                                    int cores) const {
  if (config_.shift_relative <= 0.0) return false;
  if (state_ != LbState::kObservation) return false;  // tree still moving
  if (model_.observations() < config_.shift_min_observations) return false;
  // Predictions for the EXACT counts of the step just observed: any
  // divergence is a change in seconds-per-operation -- the machine -- not in
  // the workload. Each side is judged on its own so a dead GPU cannot hide
  // behind an unchanged CPU.
  return relative_divergence(observed.near_seconds(),
                             model_.predict_near(observed.counts)) >
             config_.shift_relative ||
         relative_divergence(observed.far_seconds(),
                             model_.predict_far(observed.counts, cores)) >
             config_.shift_relative;
}

void LoadBalancer::rebuild(AdaptiveOctree& tree,
                           std::span<const Vec3> positions, LbStepReport& r,
                           const NodeSimulator& node) {
  TreeConfig cfg = tree.config();
  cfg.leaf_capacity = s_;
  tree.build(positions, cfg);
  r.rebuilt = true;
  r.lb_seconds += node.rebuild_seconds(positions.size(), tree.num_nodes());
}

OpCounts LoadBalancer::dry_run(const AdaptiveOctree& tree) const {
  if (cache_) return count_operations(tree, cache_->get(tree, traversal_));
  return count_operations(tree, build_interaction_lists(tree, traversal_));
}

int LoadBalancer::fine_grained_optimize(AdaptiveOctree& tree,
                                        const NodeSimulator& node,
                                        LbStepReport& r) {
  const int cores = node.effective_cores();
  int total_ops = 0;

  OpCounts counts = dry_run(tree);
  double current = model_.predict_compute(counts, cores);
  r.lb_seconds += node.enforce_seconds(1, tree.num_bodies());

  for (int batch = 0; batch < config_.fgo_max_batches; ++batch) {
    const bool cpu_heavy = model_.predict_cpu(counts, cores) >
                           model_.predict_gpu(counts);

    // Candidate selection. CPU too slow -> collapse "bottom" parents (all
    // children effective leaves), cheapest bodies first, moving expansion
    // work into direct work. GPU too slow -> push the fullest leaves down.
    // Walk the EFFECTIVE tree only: nodes hidden beneath a collapsed
    // ancestor are not part of the solve and must never be mutated --
    // touching them both distorts the op recount and breaks the
    // batch-revert invariant (a parent's push_down re-hides a hidden child
    // the batch also pushed down, so the revert's collapse would find an
    // effective leaf and throw).
    std::vector<int> candidates;
    std::vector<int> walk;
    if (!tree.empty()) walk.push_back(tree.root());
    while (!walk.empty()) {
      const int id = walk.back();
      walk.pop_back();
      if (tree.node(id).count == 0) continue;
      if (tree.is_effective_leaf(id)) {
        if (!cpu_heavy && tree.node(id).level < tree.config().max_depth &&
            tree.node(id).count > 1)
          candidates.push_back(id);
        continue;
      }
      if (cpu_heavy) {
        bool bottom = true;
        for (int c : tree.node(id).children)
          if (!tree.is_effective_leaf(c)) {
            bottom = false;
            break;
          }
        if (bottom) {
          candidates.push_back(id);
          continue;  // all children are effective leaves: nothing below
        }
      }
      for (int c : tree.node(id).children) walk.push_back(c);
    }
    if (candidates.empty()) break;
    std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
      const auto ca = tree.node(a).count;
      const auto cb = tree.node(b).count;
      // Collapse small nodes first; push down large leaves first; break
      // count ties by node id so the batch is a pure function of the tree.
      if (ca != cb) return cpu_heavy ? ca < cb : ca > cb;
      return a < b;
    });

    const int k = std::min<int>(config_.fgo_batch,
                                static_cast<int>(candidates.size()));
    std::vector<int> applied(candidates.begin(), candidates.begin() + k);

    // Incremental recount: collapse/push_down only reroute traversal pairs
    // touching the modified subtrees, so the batch's exact OpCounts delta is
    // (after - before) over that region -- no full dry_run per batch.
    OpCounts before = count_operations_touching(tree, applied, traversal_);
    for (int id : applied) {
      if (cpu_heavy)
        tree.collapse(id);
      else
        tree.push_down(id);
    }
    counts += count_operations_touching(tree, applied, traversal_);
    counts -= before;
    const double predicted = model_.predict_compute(counts, cores);
    r.lb_seconds += node.enforce_seconds(k, tree.num_bodies());

    if (predicted < current) {
      current = predicted;
      total_ops += k;
      continue;
    }
    // The batch made things worse: revert it (collapse and push_down are
    // exact inverses on an unchanged body set) and fall back to a full
    // recount, which also re-primes the shared list cache for the solve.
    for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
      if (cpu_heavy)
        tree.push_down(*it);
      else
        tree.collapse(*it);
    }
    counts = dry_run(tree);
    break;
  }

  r.predicted_compute = current;
  r.fgo_ops += total_ops;
  return total_ops;
}

LbStepReport LoadBalancer::post_step(AdaptiveOctree& tree,
                                     std::span<const Vec3> positions,
                                     const ObservedStepTimes& observed,
                                     const NodeSimulator& node) {
  LbStepReport r;
  r.state_before = state_;
  r.S = s_;

  const int cores = node.effective_cores();

  // Shift detection must run against the PRE-observation predictions: letting
  // this step blend into the EWMA first would halve the divergence it is
  // trying to measure.
  const bool diverged = capability_shift(observed, cores);
  if (node.health().fault_epoch != last_epoch_) {
    last_epoch_ = node.health().fault_epoch;
    // A balancer that has digested nothing yet is meeting the machine for the
    // first time (the registry's epoch starts above zero: provisioning bumps
    // it); adopt the epoch silently instead of treating it as a shift.
    if (model_.ready())
      // A registry change stays "pending" for a few judged steps: the
      // divergence it causes may only surface once the next solve runs on the
      // new machine.
      epoch_pending_ = std::max(2 * config_.shift_min_observations, 6);
  } else if (epoch_pending_ > 0 && state_ == LbState::kObservation &&
             !diverged) {
    --epoch_pending_;  // change absorbed without ever mattering
  }

  if (diverged && (!config_.shift_requires_epoch || epoch_pending_ > 0)) {
    // The machine itself changed: the learned coefficients describe hardware
    // that no longer exists. Drop them and re-search S from scratch for the
    // surviving capability.
    reenter_search();
    r.capability_shift = true;
  }

  model_.observe(observed, cores);

  if (reset_best_next_) {
    best_compute_ = observed.compute_seconds();
    reset_best_next_ = false;
  }

  switch (state_) {
    case LbState::kSearch:
      step_search(tree, positions, observed, node, r);
      break;
    case LbState::kIncremental:
      step_incremental(tree, positions, observed, node, r);
      break;
    case LbState::kObservation:
      step_observation(tree, observed, node, r);
      break;
  }

  r.state_after = state_;
  r.S = s_;
  r.best_compute = best_compute_;
  trace_step(r);
  return r;
}

void LoadBalancer::trace_step(const LbStepReport& r) const {
  if (!trace_ || !clock_) return;
  constexpr int pid = TraceRecorder::kVirtualPid;
  const double now = *clock_;
  if (r.capability_shift)
    trace_->instant(pid, "balancer", "capability-shift", "balancer", now,
                    {TraceArg::num("epoch_pending", epoch_pending_)});
  if (r.state_before != r.state_after)
    trace_->instant(pid, "balancer", "transition", "balancer", now,
                    {TraceArg::str("from", to_string(r.state_before)),
                     TraceArg::str("to", to_string(r.state_after)),
                     TraceArg::num("S", r.S),
                     TraceArg::num("best_compute", r.best_compute)});
  if (state_ == LbState::kSearch)
    trace_->instant(pid, "balancer", "search-bracket", "balancer", now,
                    {TraceArg::num("lo", search_lo_),
                     TraceArg::num("hi", search_hi_),
                     TraceArg::num("S", s_),
                     TraceArg::num("steps", search_steps_)});
  if (r.fgo_ops > 0)
    trace_->instant(pid, "balancer", "fine-grained-optimize", "balancer", now,
                    {TraceArg::num("ops", r.fgo_ops),
                     TraceArg::num("predicted_compute", r.predicted_compute)});
}

void LoadBalancer::step_search(AdaptiveOctree& tree,
                               std::span<const Vec3> positions,
                               const ObservedStepTimes& observed,
                               const NodeSimulator& node, LbStepReport& r) {
  ++search_steps_;

  const bool done = gap_ok(observed) ||
                    search_steps_ >= config_.max_search_steps ||
                    search_hi_ - search_lo_ <= std::max(1, search_lo_ / 8);
  if (done) {
    best_compute_ = observed.compute_seconds();
    if (config_.strategy == LbStrategy::kFull) {
      state_ = LbState::kIncremental;
      last_dominant_ = observed.far_seconds() > observed.near_seconds() ? +1
                                                                        : -1;
    } else {
      state_ = LbState::kObservation;
    }
    return;
  }

  // Bisect in log space: far-dominant means too much expansion work, so S
  // must grow (bigger leaves shift work into the near field); near-dominant
  // shrinks S. On a healthy machine this is exactly the paper's CPU-vs-GPU
  // comparison; with every GPU lost it balances the two CPU phases instead.
  if (observed.far_seconds() > observed.near_seconds())
    search_lo_ = s_;
  else
    search_hi_ = s_;
  const double mid = std::sqrt(static_cast<double>(search_lo_) *
                               static_cast<double>(search_hi_));
  const int next = std::clamp(static_cast<int>(std::lround(mid)),
                              config_.min_S, config_.max_S);
  if (next == s_) {
    best_compute_ = observed.compute_seconds();
    state_ = (config_.strategy == LbStrategy::kFull) ? LbState::kIncremental
                                                     : LbState::kObservation;
    return;
  }
  s_ = next;
  rebuild(tree, positions, r, node);
}

void LoadBalancer::step_incremental(AdaptiveOctree& tree,
                                    std::span<const Vec3> positions,
                                    const ObservedStepTimes& observed,
                                    const NodeSimulator& node,
                                    LbStepReport& r) {
  const int dominant =
      observed.far_seconds() > observed.near_seconds() ? +1 : -1;

  if (last_dominant_ != 0 && dominant != last_dominant_) {
    // The dominant computational unit flipped: the transitional S is found.
    if (!gap_ok(observed) && config_.enable_fgo)
      fine_grained_optimize(tree, node, r);
    best_compute_ = best_compute_ < 0.0
                        ? observed.compute_seconds()
                        : std::min(observed.compute_seconds(), best_compute_);
    state_ = LbState::kObservation;
    last_dominant_ = 0;
    return;
  }
  last_dominant_ = dominant;

  const int step = std::max(1, s_ / 8);
  const int next =
      std::clamp(s_ + dominant * step, config_.min_S, config_.max_S);
  if (next == s_) {
    best_compute_ = observed.compute_seconds();
    state_ = LbState::kObservation;
    return;
  }
  s_ = next;
  rebuild(tree, positions, r, node);
}

void LoadBalancer::step_observation(AdaptiveOctree& tree,
                                    const ObservedStepTimes& observed,
                                    const NodeSimulator& node,
                                    LbStepReport& r) {
  const double compute = observed.compute_seconds();
  if (best_compute_ < 0.0 || compute < best_compute_) best_compute_ = compute;
  if (compute <= best_compute_ * (1.0 + config_.band)) return;  // all good

  if (config_.strategy == LbStrategy::kStatic) return;

  // First line of defense: re-establish the global S.
  r.enforce_ops = tree.enforce_S(s_);
  r.lb_seconds += node.enforce_seconds(std::max(1, r.enforce_ops),
                                       tree.num_bodies());

  if (config_.strategy == LbStrategy::kEnforceOnly) {
    // Strategy 2: the step right after Enforce_S becomes the new best time.
    reset_best_next_ = true;
    return;
  }

  const int cores = node.effective_cores();
  OpCounts counts = dry_run(tree);
  double predicted = model_.predict_compute(counts, cores);
  r.lb_seconds += node.enforce_seconds(1, tree.num_bodies());

  if (predicted > best_compute_ * (1.0 + config_.band) && config_.enable_fgo) {
    fine_grained_optimize(tree, node, r);
    predicted = r.predicted_compute;
  }
  r.predicted_compute = predicted;

  if (predicted > best_compute_ * (1.0 + config_.band)) {
    // Fine tuning failed: fall back to incremental adjustment of S.
    state_ = LbState::kIncremental;
    last_dominant_ = 0;
    reset_best_next_ = true;
  }
}

}  // namespace afmm
