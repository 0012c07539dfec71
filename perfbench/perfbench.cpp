// The benchmark binary: runs one workload (workloads.hpp) and prints its
// metrics by name and unit, ending with one JSON line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   afmm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out <dir>] [--n N] [--dt DT] [--steps K]
//
// --trace 0 measures the end-to-end metrics through the public simulation
// API (GravitySimulation / StokesSimulation::step), timing every call from
// here, for as many whole episodes as start within --seconds.
// --trace 1 gives the per-layer metrics: one untraced reference episode,
// one traced episode on the same threads (traced.hpp) and one traced
// episode on one thread; all three trajectories must agree bit for bit.
// --n / --dt / --steps replace workload defaults (the benchmark's tests use
// them); results under them are not comparable with the defaults.
#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <numbers>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "kernels/gravity.hpp"
#include "kernels/stokeslet.hpp"
#include "spans.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using afmm::StepRecord;

// Accuracy of force (gravity) or velocity (Stokes) against direct summation,
// as the 99th-percentile relative error. The reported value covers every
// body of the priming solve, whose leaf capacity (the workload's initial S)
// does not depend on the seed; later steps run at whatever S the balancer
// chose, so each step of the first episode is only checked, on
// kAccuracySamples sampled bodies. Any value above kAccuracyBound marks the
// output wrong: order-5 expansions stay below 1e-3 on these workloads, and
// 1e-2 leaves room for accuracy-changing far-field work while still catching
// a broken operator.
constexpr std::size_t kAccuracySamples = 2048;
constexpr double kAccuracyBound = 1e-2;

int max_threads() { return std::min(4, omp_get_num_procs()); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// FNV-1a over the trajectory: records, checkpoint bytes, obs output and
// final positions. Two runs of one seed must produce the same value.
class Fingerprint {
 public:
  void bytes(const void* p, std::size_t n) {
    h_ = afmm::sdc_checksum_extend(h_, p, n);
  }
  template <class T>
  void value(const T& v) {
    static_assert(std::is_arithmetic_v<T>);
    bytes(&v, sizeof v);
  }
  void record(const StepRecord& r) {
    value(r.step);
    value(r.S);
    value(static_cast<int>(r.state));
    value(static_cast<int>(r.rebuilt));
    value(r.enforce_ops);
    value(r.fgo_ops);
    value(r.compute_seconds);
    value(r.cpu_seconds);
    value(r.gpu_seconds);
    value(r.lb_seconds);
    value(r.predicted_far_seconds);
    value(r.predicted_near_seconds);
    value(r.stats.nodes);
    value(r.stats.effective_leaves);
    value(r.stats.depth);
    value(r.stats.m2l_pairs);
    value(r.stats.p2p_interactions);
  }
  void text(const std::string& s) { bytes(s.data(), s.size()); }
  void vecs(const std::vector<Vec3>& v) {
    bytes(v.data(), v.size() * sizeof(Vec3));
  }
  std::uint64_t get() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

// The step guard: a step fails when a body left the root box, a position,
// velocity or virtual time is not finite, or the benchmark's audit failed.
bool step_ok(const Workload& w, const std::vector<Vec3>& pos,
             const std::vector<Vec3>& vel, const StepRecord& rec,
             const afmm::AuditReport* audit) {
  const afmm::TreeConfig& box = w.root();
  for (const Vec3& p : pos)
    for (int d = 0; d < 3; ++d) {
      const double off = p[d] - box.root_center[d];
      if (!std::isfinite(p[d]) || std::abs(off) > box.root_half) return false;
    }
  for (const Vec3& v : vel)
    if (!std::isfinite(v.x) || !std::isfinite(v.y) || !std::isfinite(v.z))
      return false;
  if (!std::isfinite(rec.total_seconds())) return false;
  return !audit || audit->ok();
}

std::vector<std::uint32_t> sample_targets(std::size_t n, std::size_t samples,
                                          std::uint64_t seed) {
  afmm::Rng rng(seed ^ 0xACC0ACC0ull);
  const std::size_t m = std::min(samples, n);
  std::vector<std::uint32_t> idx(m);
  for (std::size_t i = 0; i < m; ++i)
    idx[i] = static_cast<std::uint32_t>(i * n / m + rng.below(n / m));
  return idx;
}

// 99th percentile of the sampled values' errors against their direct-sum
// references, each divided by the RMS magnitude of the references.
// (Dividing by each body's own magnitude would let the few bodies whose
// forces nearly cancel decide the percentile.)
double p99_rel_error(const std::vector<Vec3>& got,
                     const std::vector<Vec3>& want) {
  double ss = 0.0;
  for (const Vec3& w : want) ss += afmm::norm2(w);
  const double rms = std::sqrt(ss / static_cast<double>(want.size()));
  std::vector<double> err;
  for (std::size_t i = 0; i < got.size(); ++i)
    err.push_back(afmm::norm(got[i] - want[i]) / rms);
  return percentile(err, 0.99);
}

// Relative force errors of sampled bodies against direct summation with
// the simulation's own softened kernel (kernels/gravity.hpp).
double gravity_error(const Workload& w, const afmm::ParticleSet& bodies,
                     const std::vector<Vec3>& accel, std::size_t samples,
                     std::uint64_t seed) {
  const std::size_t n = bodies.size();
  const auto idx = sample_targets(n, samples, seed);
  std::vector<afmm::GravitySource> sources(n);
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    sources[i] = {bodies.positions[i], bodies.masses[i]};
    ids[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<Vec3> targets;
  for (auto i : idx) targets.push_back(bodies.positions[i]);
  std::vector<afmm::GravityAccum> ref(idx.size());
  afmm::gravity_direct(afmm::GravityKernel(w.gravity.softening), targets, idx,
                       sources, ids, ref);
  std::vector<Vec3> got, want;
  for (std::size_t k = 0; k < idx.size(); ++k) {
    got.push_back(accel[idx[k]]);
    want.push_back(w.gravity.grav_const * ref[k].grad);
  }
  return p99_rel_error(got, want);
}

// Relative velocity errors of sampled bodies against direct summation of
// the regularized Stokeslet (kernels/stokeslet.hpp) at the solve positions.
double stokes_error(const Workload& w, const std::vector<Vec3>& solve_pos,
                    const std::vector<Vec3>& velocities, std::size_t samples,
                    std::uint64_t seed) {
  const std::size_t n = solve_pos.size();
  std::vector<Vec3> forces(n);
  w.force_model()(solve_pos, forces);
  const afmm::StokesletKernel kernel(w.stokes.epsilon);
  const double mobility =
      1.0 / (8.0 * std::numbers::pi_v<double> * w.stokes.viscosity);
  std::vector<Vec3> got, want;
  for (auto t : sample_targets(n, samples, seed)) {
    afmm::StokesletAccum acc;
    for (std::size_t j = 0; j < n; ++j)
      kernel.accumulate(solve_pos[t], t, {solve_pos[j], forces[j]},
                        static_cast<std::uint32_t>(j), acc);
    got.push_back(velocities[t]);
    want.push_back(mobility * acc.u);
  }
  return p99_rel_error(got, want);
}

// Everything one episode measured.
struct Episode {
  double setup_s = 0.0;
  std::vector<double> step_walls;  // step() plus the due audit / checkpoint
  double obs_write_s = 0.0;
  std::vector<StepRecord> records;
  std::uint64_t fingerprint = 0;
  int failed = 0;
  double setup_error = 0.0;         // p99 error of the priming solve
  std::vector<double> step_errors;  // per-step p99 error, when checked
  std::size_t trace_events = 0;
  std::size_t metric_rows = 0;
  int checkpoints = 0;
  double checkpoint_bytes = 0.0;
  int audit_failures = 0;
  // Traced episodes only.
  SpanLog spans;
  afmm::OpTimers op_timers;
  double cache_hits = 0.0;
  double cache_gets = 0.0;
};

bool state_due(const Workload& w, int step) {
  return w.state_interval > 0 && (step + 1) % w.state_interval == 0;
}

std::string metrics_csv(const afmm::MetricsRegistry& m) {
  std::ostringstream os;
  m.write_csv(os);
  return os.str();
}

// Positions and velocities of the public simulations and the traced one.
const std::vector<Vec3>& positions_of(const afmm::GravitySimulation& s) {
  return s.bodies().positions;
}
const std::vector<Vec3>& positions_of(const afmm::StokesSimulation& s) {
  return s.positions();
}
const std::vector<Vec3>& positions_of(const TracedSimulation& s) {
  return s.positions();
}
const std::vector<Vec3>& velocities_of(const afmm::GravitySimulation& s) {
  return s.bodies().velocities;
}
const std::vector<Vec3>& velocities_of(const afmm::StokesSimulation& s) {
  return s.velocities();
}
const std::vector<Vec3>& velocities_of(const TracedSimulation& s) {
  return s.velocities();
}

// p99 error of the last solve; `solve_pos` are the positions it ran at.
double accuracy_error(const Workload& w, const afmm::GravitySimulation& sim,
                      const std::vector<Vec3>& solve_pos, std::size_t samples,
                      std::uint64_t seed) {
  (void)solve_pos;  // the leapfrog drift happens before the solve
  return gravity_error(w, sim.bodies(), sim.checkpoint().accel, samples, seed);
}
double accuracy_error(const Workload& w, const afmm::StokesSimulation& sim,
                      const std::vector<Vec3>& solve_pos, std::size_t samples,
                      std::uint64_t seed) {
  return stokes_error(w, solve_pos, sim.velocities(), samples, seed);
}

// Called after each step with the positions that step solved at.
using StepCheck = std::function<void(const std::vector<Vec3>& solve_pos)>;

// The step loop both kinds of episode share. `sim` is a public simulation or
// a TracedSimulation. After each step come the due audit and checkpoint,
// all timed here as the step's wall; then the step guard, the fingerprint
// and `check`. At the end trace and metrics are written out. With a span log
// the step, the state calls and the write get spans.
template <class Sim>
void take_steps(const Workload& w, Sim& sim, const fs::path& out,
                SpanLog* log, const StepCheck& check, Episode& ep) {
  const fs::path ckpt_dir = out / "ckpt";
  std::error_code ec;
  fs::remove_all(ckpt_dir, ec);
  std::optional<afmm::CheckpointStore> store;
  if (w.state_interval) store.emplace(ckpt_dir.string(), kCheckpointKeep);
  Fingerprint fp;

  for (int s = 0; s < w.episode_steps; ++s) {
    std::vector<Vec3> solve_pos;
    if (check) solve_pos = positions_of(sim);
    if (log) log->set_step(s);
    std::optional<afmm::AuditReport> audit;
    std::optional<afmm::SimCheckpoint> ckpt;
    bool saved = true;
    StepRecord rec;
    const auto ts = Clock::now();
    {
      SpanLog::Scope step(log, "core.step");
      rec = sim.step();
      if (state_due(w, s)) {
        {
          SpanLog::Scope a(log, "state.audit");
          audit = sim.run_audit();
        }
        SpanLog::Scope c(log, "state.checkpoint");
        ckpt = sim.checkpoint();
        saved = store->save(*ckpt);
      }
    }
    ep.step_walls.push_back(seconds_between(ts, Clock::now()));
    if (log) log->set_step(-1);

    if (!step_ok(w, positions_of(sim), velocities_of(sim), rec,
                 audit ? &*audit : nullptr) ||
        !saved)
      ++ep.failed;
    if (audit && !audit->ok()) ++ep.audit_failures;
    fp.record(rec);
    if (ckpt) {
      const auto bytes = afmm::encode_checkpoint(*ckpt);
      ++ep.checkpoints;
      ep.checkpoint_bytes += static_cast<double>(bytes.size());
      fp.bytes(bytes.data(), bytes.size());
    }
    ep.records.push_back(rec);
    if (check) check(solve_pos);
  }

  afmm::TraceRecorder* trace = sim.trace();
  afmm::MetricsRegistry* metrics = sim.metrics();
  if (trace || metrics) {
    const auto tw = Clock::now();
    SpanLog::Scope span(log, "obs.write");
    if (trace && !trace->write_json_file((out / "trace.json").string()))
      ++ep.failed;
    if (metrics && !metrics->write_csv_file((out / "metrics.csv").string()))
      ++ep.failed;
    ep.obs_write_s = seconds_between(tw, Clock::now());
  }
  if (trace) {
    ep.trace_events = trace->size();
    fp.text(trace->to_json());
  }
  if (metrics) {
    ep.metric_rows = metrics->rows().size();
    fp.text(metrics_csv(*metrics));
  }
  fp.vecs(positions_of(sim));
  ep.fingerprint = fp.get();
}

template <class Sim>
std::unique_ptr<Sim> construct(const Workload& w,
                               const afmm::ParticleSet& bodies) {
  if constexpr (std::is_same_v<Sim, afmm::GravitySimulation>)
    return std::make_unique<Sim>(w.gravity, w.node(), bodies);
  else
    return std::make_unique<Sim>(w.stokes, w.node(), bodies.positions,
                                 w.force_model());
}

// One untraced episode through the public API; the first one of a run also
// checks accuracy.
template <class Sim>
void engine_episode(const Workload& w, const afmm::ParticleSet& bodies,
                    const fs::path& out, bool check_accuracy,
                    std::uint64_t seed, Episode& ep) {
  const auto t0 = Clock::now();
  std::unique_ptr<Sim> sim = construct<Sim>(w, bodies);
  ep.setup_s = seconds_between(t0, Clock::now());

  StepCheck check;
  if (check_accuracy) {
    ep.setup_error = accuracy_error(w, *sim, positions_of(*sim), w.n, seed);
    check = [&](const std::vector<Vec3>& solve_pos) {
      ep.step_errors.push_back(
          accuracy_error(w, *sim, solve_pos, kAccuracySamples, seed));
    };
  }
  take_steps(w, *sim, out, nullptr, check, ep);
}

void run_engine_episode(const Workload& w, const afmm::ParticleSet& bodies,
                        const fs::path& out, bool check_accuracy,
                        std::uint64_t seed, Episode& ep) {
  if (w.physics == Physics::kGravity)
    engine_episode<afmm::GravitySimulation>(w, bodies, out, check_accuracy,
                                            seed, ep);
  else
    engine_episode<afmm::StokesSimulation>(w, bodies, out, check_accuracy,
                                           seed, ep);
}

// One traced episode (traced.hpp), spans recorded into ep.spans.
void run_traced_episode(const Workload& w, const afmm::ParticleSet& bodies,
                        const fs::path& out, Episode& ep) {
  TracedSimulation sim(w, bodies, ep.spans, &ep.op_timers);
  const auto t0 = Clock::now();
  sim.prepare();
  ep.setup_s = seconds_between(t0, Clock::now());
  ep.op_timers.reset();  // per-op times of the steps only

  take_steps(w, sim, out, &ep.spans, nullptr, ep);
  const auto& cache = sim.list_cache();
  ep.cache_hits = static_cast<double>(cache.hits());
  ep.cache_gets = static_cast<double>(cache.hits() + cache.builds());
}

// --- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// A metric that is not finite cannot be printed as a JSON number; it is
// printed as 0 and the run is marked incorrect.
void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) correct &= std::isfinite(m.value);
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_trajectory(const Episode& ep) {
  std::printf("  trajectory: fingerprint %016llx, S/state",
              static_cast<unsigned long long>(ep.fingerprint));
  for (const auto& r : ep.records)
    std::printf(" %d/%c", r.S, afmm::to_string(r.state)[0]);
  std::printf("\n");
}

double mean_of(const std::vector<StepRecord>& recs,
               double (*field)(const StepRecord&)) {
  if (recs.empty()) return 0.0;
  double s = 0.0;
  for (const auto& r : recs) s += field(r);
  return s / static_cast<double>(recs.size());
}

// Whether the priming solve and every checked step stayed within the bound.
bool accurate(const Episode& ep) {
  bool ok = ep.setup_error <= kAccuracyBound;
  for (double e : ep.step_errors) ok &= e <= kAccuracyBound;
  return ok;
}

void print_accuracy(const Episode& ep) {
  std::printf("  accuracy (p99 relative error, bound %.0e): priming solve "
              "%.3e over all bodies; steps",
              kAccuracyBound, ep.setup_error);
  for (double e : ep.step_errors) std::printf(" %.2e", e);
  std::printf(" over %zu sampled bodies%s\n", kAccuracySamples,
              accurate(ep) ? "" : "  EXCEEDED");
}

// --trace 0: whole episodes until --seconds have elapsed.
int run_end_to_end(const Workload& w, const afmm::ParticleSet& bodies,
                   std::uint64_t seed, double seconds, const fs::path& out) {
  std::deque<Episode> eps;  // Episode holds non-movable timers
  const auto start = Clock::now();
  do {
    eps.emplace_back();
    run_engine_episode(w, bodies, out, eps.size() == 1, seed, eps.back());
  } while (seconds_between(start, Clock::now()) < seconds);

  std::vector<double> walls, setups;
  double total_wall = 0.0;
  long steps = 0, failed = 0;
  bool same_trajectory = true;
  for (const auto& ep : eps) {
    walls.insert(walls.end(), ep.step_walls.begin(), ep.step_walls.end());
    setups.push_back(ep.setup_s);
    total_wall += sum(ep.step_walls) + ep.obs_write_s;
    steps += static_cast<long>(ep.step_walls.size());
    failed += ep.failed;
    same_trajectory &= ep.fingerprint == eps.front().fingerprint;
  }
  const Episode& first = eps.front();

  std::printf("workload %s: N=%zu, %d OpenMP threads, %zu episodes x %d "
              "steps (%zu step samples, %zu set-up samples)\n",
              w.name.c_str(), w.n, max_threads(), eps.size(),
              w.episode_steps, walls.size(), setups.size());
  print_trajectory(first);
  print_accuracy(first);
  if (!same_trajectory)
    std::printf("  ERROR: episodes of one seed diverged\n");
  std::printf("  failed steps: %ld of %ld\n", failed, steps);

  const std::vector<Metric> metrics{
      {"body_steps_per_s",
       static_cast<double>(w.n) * static_cast<double>(steps) / total_wall,
       "1/s"},
      {"step_wall_p50_s", median(walls), "s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"virtual_step_s",
       mean_of(first.records,
               [](const StepRecord& r) { return r.total_seconds(); }),
       "s"},
      {"accuracy.rel_err_p99", first.setup_error, "ratio"},
  };
  print_result(same_trajectory && accurate(first), steps, failed, metrics);
  return 0;
}

// --trace 1: reference episode, traced episode, single-thread traced
// episode; per-layer metrics from the spans.
int run_traced(const Workload& w, const afmm::ParticleSet& bodies,
               std::uint64_t seed, const fs::path& out) {
  const int threads = max_threads();
  Episode ref, tr, one;
  run_engine_episode(w, bodies, out, true, seed, ref);
  run_traced_episode(w, bodies, out, tr);
  omp_set_num_threads(1);
  run_traced_episode(w, bodies, out / "one-thread", one);
  omp_set_num_threads(threads);
  tr.spans.write_chrome_json((out / "spans.json").string());

  const bool match =
      tr.fingerprint == ref.fingerprint && one.fingerprint == ref.fingerprint;
  const double k = static_cast<double>(w.episode_steps);
  auto per_step = [&](const Episode& ep, const char* name) {
    return ep.spans.totals(name, true).total / k;
  };
  auto eff = [&](const char* name) {
    const double tp = per_step(tr, name);
    return tp > 0 ? per_step(one, name) / (threads * tp) : 0.0;
  };
  auto op_seconds = [&](afmm::FmmOp op) {
    return tr.op_timers.totals(op).seconds / k;
  };
  const auto step = tr.spans.totals("core.step", true);
  const auto& recs = tr.records;

  int to_observation = w.episode_steps + 1;
  for (std::size_t i = 0; i < recs.size(); ++i)
    if (recs[i].state == afmm::LbState::kObservation) {
      to_observation = static_cast<int>(i) + 1;
      break;
    }
  std::vector<double> far_err, near_err;
  double rebuilds = 0, enforce = 0, fgo = 0;
  for (const auto& r : recs) {
    if (r.predicted_far_seconds > 0 && r.cpu_seconds > 0)
      far_err.push_back(std::abs(r.predicted_far_seconds - r.cpu_seconds) /
                        r.cpu_seconds);
    if (r.predicted_near_seconds > 0 && r.gpu_seconds > 0)
      near_err.push_back(std::abs(r.predicted_near_seconds - r.gpu_seconds) /
                         r.gpu_seconds);
    rebuilds += r.rebuilt;
    enforce += r.enforce_ops;
    fgo += r.fgo_ops;
  }
  const double p2p_s = per_step(tr, "gpusim.run_p2p");
  const double interactions = mean_of(recs, [](const StepRecord& r) {
    return static_cast<double>(r.stats.p2p_interactions);
  });
  const auto ckpt = tr.spans.totals("state.checkpoint", true);
  const auto audit = tr.spans.totals("state.audit", true);

  std::printf("workload %s (traced): N=%zu, %d OpenMP threads, %d steps per "
              "episode\n",
              w.name.c_str(), w.n, threads, w.episode_steps);
  print_trajectory(ref);
  print_accuracy(ref);
  std::printf("  fingerprints: reference %016llx, traced %016llx, "
              "one-thread %016llx%s\n",
              static_cast<unsigned long long>(ref.fingerprint),
              static_cast<unsigned long long>(tr.fingerprint),
              static_cast<unsigned long long>(one.fingerprint),
              match ? "" : "  MISMATCH");
  std::printf("  traced step wall %.3f s over %d steps; layer shares:",
              step.total, step.count);
  for (const char* name :
       {"gpusim.run_p2p", "expansion.evaluate", "balance.post_step",
        "octree.traversal", "octree.rebin", "machine.simulate_far_field",
        "core.integrate", "state.audit", "state.checkpoint", "obs.emit"}) {
    const double t = tr.spans.totals(name, true).total;
    if (t > 0) std::printf(" %s %.1f%%", name, 100.0 * t / step.total);
  }
  std::printf("\n  spans written to %s\n",
              (out / "spans.json").string().c_str());

  const std::vector<Metric> metrics{
      {"gpusim.p2p_s", p2p_s, "s"},
      {"gpusim.p2p_interactions", interactions, "count"},
      {"gpusim.interactions_per_s", p2p_s > 0 ? interactions / p2p_s : 0.0,
       "1/s"},
      {"gpusim.parallel_eff", eff("gpusim.run_p2p"), "ratio"},
      {"gpusim.virtual_kernel_s",
       mean_of(recs, [](const StepRecord& r) { return r.gpu_seconds; }), "s"},
      {"expansion.far_s", per_step(tr, "expansion.evaluate"), "s"},
      {"expansion.m2l_s", op_seconds(afmm::FmmOp::kM2L), "s"},
      {"expansion.p2m_s", op_seconds(afmm::FmmOp::kP2M), "s"},
      {"expansion.m2m_s", op_seconds(afmm::FmmOp::kM2M), "s"},
      {"expansion.l2l_s", op_seconds(afmm::FmmOp::kL2L), "s"},
      {"expansion.l2p_s", op_seconds(afmm::FmmOp::kL2P), "s"},
      {"expansion.m2l_pairs",
       mean_of(recs,
               [](const StepRecord& r) {
                 return static_cast<double>(r.stats.m2l_pairs);
               }),
       "count"},
      {"expansion.parallel_eff", eff("expansion.evaluate"), "ratio"},
      {"octree.rebin_s", per_step(tr, "octree.rebin"), "s"},
      {"octree.build_s", tr.spans.totals("octree.build", false).total, "s"},
      {"octree.traversal_s", per_step(tr, "octree.traversal"), "s"},
      {"octree.list_cache_hit_ratio",
       tr.cache_gets > 0 ? tr.cache_hits / tr.cache_gets : 0.0, "ratio"},
      {"octree.nodes",
       mean_of(recs,
               [](const StepRecord& r) {
                 return static_cast<double>(r.stats.nodes);
               }),
       "count"},
      {"octree.depth",
       mean_of(recs,
               [](const StepRecord& r) {
                 return static_cast<double>(r.stats.depth);
               }),
       "count"},
      {"balance.post_step_s", per_step(tr, "balance.post_step"), "s"},
      {"balance.virtual_lb_s",
       mean_of(recs, [](const StepRecord& r) { return r.lb_seconds; }), "s"},
      {"balance.rebuilds", rebuilds, "count"},
      {"balance.enforce_ops", enforce, "count"},
      {"balance.fgo_ops", fgo, "count"},
      {"balance.steps_to_observation", static_cast<double>(to_observation),
       "count"},
      {"balance.pred_err_far", median(far_err), "ratio"},
      {"balance.pred_err_near", median(near_err), "ratio"},
      {"machine.far_model_s", per_step(tr, "machine.simulate_far_field"),
       "s"},
      {"machine.virtual_cpu_s",
       mean_of(recs, [](const StepRecord& r) { return r.cpu_seconds; }), "s"},
      {"machine.virtual_gpu_s",
       mean_of(recs, [](const StepRecord& r) { return r.gpu_seconds; }), "s"},
      {"state.checkpoint_s", ckpt.count ? ckpt.total / ckpt.count : 0.0, "s"},
      {"state.checkpoint_bytes",
       tr.checkpoints ? tr.checkpoint_bytes / tr.checkpoints : 0.0, "B"},
      {"state.audit_s", audit.count ? audit.total / audit.count : 0.0, "s"},
      {"state.rollbacks", static_cast<double>(tr.audit_failures), "count"},
      {"obs.write_s", tr.spans.totals("obs.write", false).total, "s"},
      {"obs.trace_events", static_cast<double>(tr.trace_events), "count"},
      {"obs.metric_rows", static_cast<double>(tr.metric_rows), "count"},
      {"core.step_s", step.total / k, "s"},
      {"core.integrate_s", per_step(tr, "core.integrate"), "s"},
      {"core.unattributed_ratio",
       step.total > 0 ? step.self / step.total : 0.0, "ratio"},
      {"core.tracing_overhead",
       step.total / std::max(sum(ref.step_walls), 1e-12), "ratio"},
      {"core.threads", static_cast<double>(threads), "count"},
  };
  const long attempted = static_cast<long>(
      ref.step_walls.size() + tr.step_walls.size() + one.step_walls.size());
  print_result(match && accurate(ref), attempted,
               ref.failed + tr.failed + one.failed, metrics);
  return 0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out = ".bench_build/perfbench-out";
  Overrides overrides;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = std::stoi(val);
    else if (key == "--out") a.out = val;
    else if (key == "--n") a.overrides.n = std::stoul(val);
    else if (key == "--dt") a.overrides.dt = std::stod(val);
    else if (key == "--steps") a.overrides.steps = std::stoi(val);
    else throw std::invalid_argument("unknown option " + key);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1)
    throw std::invalid_argument("--trace must be 0 or 1");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse(argc, argv);
    Workload w = make_workload(args.workload, args.overrides);
    const afmm::ParticleSet bodies = make_bodies(w, args.seed);
    omp_set_num_threads(max_threads());
    const fs::path out = fs::path(args.out) / w.name;
    fs::create_directories(out);
    std::printf("bodies: seed %llu, fingerprint %016llx\n",
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(afmm::sdc_checksum_bytes(
                    bodies.positions.data(),
                    bodies.positions.size() * sizeof(Vec3))));
    return args.trace ? run_traced(w, bodies, args.seed, out)
                      : run_end_to_end(w, bodies, args.seed, args.seconds,
                                       out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "afmm_perfbench: %s\n", e.what());
    return 2;
  }
}
