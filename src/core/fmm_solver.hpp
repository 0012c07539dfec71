// The adaptive FMM solvers.
//
// HarmonicFarField is the expansion engine: given a tree and one or more
// scalar charge vectors ("right-hand sides"), it runs P2M -> M2M -> (M2L,
// L2L) -> L2P with OpenMP tasks spawned per child and a taskwait at each
// parent -- exactly the recursive pattern of the paper's Section III.B --
// and returns potential + gradient per body for each rhs.
//
// GravitySolver   : 1 rhs (masses); acceleration = G * gradient.
// StokesletSolver : 4 rhs (f_x, f_y, f_z, y.f); velocities assembled via the
//                   harmonic identity in kernels/stokeslet.hpp. This is the
//                   paper's fluid problem with ~4x the M2L cost.
//
// Both solvers share one solve body (FmmSolver::solve_fields): far field,
// near field on the simulated GPU system (gpusim/p2p_executor.hpp), and the
// machine model's virtual CPU/GPU times in the returned SolveOutcome.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "expansion/operators.hpp"
#include "gpusim/p2p_executor.hpp"
#include "kernels/gravity.hpp"
#include "kernels/stokeslet.hpp"
#include "machine/machine.hpp"
#include "octree/list_cache.hpp"
#include "octree/octree.hpp"
#include "octree/traversal.hpp"
#include "sdc/sdc.hpp"
#include "util/op_timers.hpp"

namespace afmm {

struct FmmConfig {
  int order = 5;  // Taylor expansion order p ("retained terms")
  TraversalConfig traversal;
  // Collect REAL wall-clock per-operation times (paper Section IV.D's
  // per-thread measurement) into the result's `real_timings`. Off by
  // default: ~2 clock reads per node-level operation.
  bool collect_real_timings = false;
  // ABFT silent-corruption detection (sdc/). All detectors default OFF;
  // armed detectors only read clean data, so fault-free solves stay
  // bit-identical with detection on or off.
  SdcDetectConfig sdc;
};

// Structural statistics of one solve, for benches and logs.
struct SolveStats {
  int nodes = 0;
  int effective_leaves = 0;
  int depth = 0;
  std::uint64_t m2l_pairs = 0;
  std::uint64_t p2p_interactions = 0;
};

class HarmonicFarField {
 public:
  explicit HarmonicFarField(const FmmConfig& config);

  const ExpansionContext& context() const { return ctx_; }
  const FmmConfig& config() const { return config_; }

  // charges[rhs][tree-ordered body]; out[rhs][tree-ordered body].
  // All rhs share the traversal and the M2L derivative tensors.
  // When `timers` is non-null, real per-thread operation times accumulate
  // into it (counts are per application, P2M/L2P per covered body).
  // When `sdc` is non-null, the armed expansion detectors (and the injected
  // kSdcExpansion corruption, if pending) run between the upward and
  // downward passes; a detected corruption is repaired by re-running just
  // that subtree's upward pass and verified against the stored checksum.
  void evaluate(const AdaptiveOctree& tree, const InteractionLists& lists,
                std::span<const std::vector<double>> charges,
                std::vector<std::vector<PointValue>>& out,
                OpTimers* timers = nullptr,
                const SdcHooks* sdc = nullptr) const;

 private:
  FmmConfig config_;
  ExpansionContext ctx_;
};

// What every solve reports besides its physics: the machine-model
// observation the balancer digests, plus what observability emission needs.
// It is also what a Problem's solve hands back to the engine; the typed
// numerical result (gradient, velocity) stays inside the Problem between
// solve() and post_solve().
struct SolveOutcome {
  ObservedStepTimes times;
  GpuRunResult gpu;
  SolveStats stats;
  // Real wall-clock per-op times (populated when collect_real_timings).
  std::shared_ptr<OpTimers> real_timings;
  // SDC activity inside this solve (injections, detections, repairs).
  SdcReport sdc;
};

struct GravityResult : SolveOutcome {
  std::vector<double> potential;  // phi = sum q/r, original body order
  std::vector<Vec3> gradient;     // grad phi; acceleration = G * gradient
};

struct StokesletResult : SolveOutcome {
  std::vector<Vec3> velocity;  // original body order, before 1/(8 pi mu)
};

// State and solve steps shared by GravitySolver and StokesletSolver. Each
// solver adds only its right-hand-side / source assembly and the combination
// of the far and near fields into its result.
template <class Kernel>
class FmmSolver {
 public:
  const HarmonicFarField& far_field() const { return far_; }
  NodeSimulator& node() { return node_; }
  const NodeSimulator& node() const { return node_; }

  // Share an external interaction-list cache (e.g. with the load balancer so
  // its dry runs and the next solve reuse one traversal); nullptr returns to
  // the solver-owned cache. The pointee must outlive the solver's use.
  void set_list_cache(InteractionListCache* cache) { external_cache_ = cache; }
  const InteractionListCache& list_cache() const {
    return external_cache_ ? *external_cache_ : own_cache_;
  }

 protected:
  FmmSolver(const FmmConfig& config, NodeSimulator node, Kernel kernel);

  // Tree-ordered field values of one solve.
  struct Fields {
    std::vector<std::vector<PointValue>> far;  // [rhs][body]
    std::vector<typename Kernel::Accum> near;  // [body]
  };

  // Far field of the harmonic right-hand sides `rhs` plus near field of the
  // tree-ordered `sources`, with the SDC hooks the node's health arms, and
  // the machine model's virtual times for `rhs.size()` expansion passes.
  // Fills `out`; the caller combines the returned fields.
  Fields solve_fields(const AdaptiveOctree& tree,
                      std::span<const std::vector<double>> rhs,
                      std::span<const typename Kernel::Source> sources,
                      SolveOutcome& out) const;

 private:
  HarmonicFarField far_;
  NodeSimulator node_;
  Kernel kernel_;
  mutable InteractionListCache own_cache_;
  InteractionListCache* external_cache_ = nullptr;
};

class GravitySolver : public FmmSolver<GravityKernel> {
 public:
  GravitySolver(const FmmConfig& config, NodeSimulator node,
                GravityKernel kernel = GravityKernel{});

  // Solve on a prepared tree. `positions` / `charges` are in ORIGINAL body
  // order; the tree must have been built (or rebinned) from `positions`.
  GravityResult solve(const AdaptiveOctree& tree,
                      std::span<const Vec3> positions,
                      std::span<const double> charges) const;
};

class StokesletSolver : public FmmSolver<StokesletKernel> {
 public:
  StokesletSolver(const FmmConfig& config, NodeSimulator node, double epsilon);

  StokesletResult solve(const AdaptiveOctree& tree,
                        std::span<const Vec3> positions,
                        std::span<const Vec3> forces) const;
};

SolveStats make_stats(const AdaptiveOctree& tree,
                      const InteractionLists& lists);

}  // namespace afmm
