#include "machine/machine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "cpusched/task_sim.hpp"

namespace afmm {

double CpuModelConfig::effective_rate(int p) const {
  const int sockets_used =
      (std::min(p, num_cores) + cores_per_socket - 1) / cores_per_socket;
  const int extra = std::min(std::max(0, sockets_used - 1), max_bonus_sockets);
  return gflops_per_core * 1e9 * (1.0 + cache_bonus_per_extra_socket * extra);
}

double CpuModelConfig::bandwidth_share(int p) const {
  return std::min(bw_per_core_gbs, bw_total_gbs / std::max(1, p)) * 1e9;
}

double CpuModelConfig::task_seconds(double flops, int p) const {
  return flops / effective_rate(p) +
         flops * bytes_per_flop / bandwidth_share(p);
}

namespace {

// Builds the up-sweep and down-sweep task graphs and returns their combined
// makespan plus per-op totals. Work per task:
//   up-sweep   : leaf -> P2M over its bodies; internal -> one M2M per
//                nonempty child
//   down-sweep : every node -> its M2L list + one incoming L2L (if parent);
//                leaf -> additionally L2P over its bodies
struct FarFieldBreakdown {
  double up_makespan = 0.0;
  double down_makespan = 0.0;
  double t_p2m = 0.0, t_m2m = 0.0, t_m2l = 0.0, t_l2l = 0.0, t_l2p = 0.0;
  double t_m2p = 0.0, t_p2l = 0.0;
};

// Per-operation flops of one node's sweep tasks. up()/down() sum their
// addends in the exact order the historical builder accumulated them, so
// task durations stay bitwise identical to the recorded timelines.
struct NodeSweepFlops {
  double p2m = 0.0, m2m = 0.0;                                    // up-sweep
  double m2l = 0.0, l2l = 0.0, l2p = 0.0, m2p = 0.0, p2l = 0.0;  // down-sweep
  double up() const { return p2m + m2m; }
  double down() const { return l2p + m2l + m2p + p2l + l2l; }
};

NodeSweepFlops node_sweep_flops(const ExpansionContext& ctx,
                                const AdaptiveOctree& tree,
                                const InteractionLists& lists, int id,
                                double passes) {
  NodeSweepFlops f;
  const OctreeNode& n = tree.node(id);
  if (tree.is_effective_leaf(id)) {
    f.p2m = passes * ctx.flops_p2m_per_body() * n.count;
    f.l2p = passes * ctx.flops_l2p_per_body() * n.count;
  }
  const auto m2l_count = lists.m2l_offset[id + 1] - lists.m2l_offset[id];
  if (m2l_count > 0) f.m2l = passes * ctx.flops_m2l() * m2l_count;
  // Extension operators, when the traversal emitted them.
  if (!lists.m2p_offset.empty()) {
    const auto m2p_count = lists.m2p_offset[id + 1] - lists.m2p_offset[id];
    if (m2p_count > 0)
      f.m2p = passes * ctx.flops_m2p_per_body() *
              static_cast<double>(m2p_count) * n.count;
  }
  if (!lists.p2l_offset.empty()) {
    std::uint64_t p2l_bodies = 0;
    for (std::uint32_t e = lists.p2l_offset[id]; e < lists.p2l_offset[id + 1];
         ++e)
      p2l_bodies += tree.node(lists.p2l_sources[e]).count;
    if (p2l_bodies > 0)
      f.p2l =
          passes * ctx.flops_p2l_per_body() * static_cast<double>(p2l_bodies);
  }
  if (n.parent >= 0) {
    // M2M into the parent is charged on the child task (it runs after the
    // child subtree completes); L2L from the parent on the child as well.
    f.m2m = passes * ctx.flops_m2m();
    f.l2l = passes * ctx.flops_l2l();
  }
  return f;
}

FarFieldBreakdown build_and_schedule(const ExpansionContext& ctx,
                                     const AdaptiveOctree& tree,
                                     const InteractionLists& lists,
                                     const CpuModelConfig& cpu,
                                     int m2l_passes) {
  FarFieldBreakdown out;
  const int p = cpu.num_cores;
  const double ov = cpu.task_overhead_us * 1e-6;
  const double passes = static_cast<double>(m2l_passes);

  TaskGraphSim up;
  TaskGraphSim down;
  // task ids per node (only nonempty effective-tree nodes get tasks)
  std::vector<int> up_id(tree.num_nodes(), -1);
  std::vector<int> down_id(tree.num_nodes(), -1);

  auto visit = [&](auto&& self, int id) -> void {
    const OctreeNode& n = tree.node(id);
    if (n.count == 0) return;

    const NodeSweepFlops f = node_sweep_flops(ctx, tree, lists, id, passes);
    out.t_p2m += cpu.task_seconds(f.p2m, p);
    out.t_l2p += cpu.task_seconds(f.l2p, p);
    out.t_m2l += cpu.task_seconds(f.m2l, p);
    out.t_m2p += cpu.task_seconds(f.m2p, p);
    out.t_p2l += cpu.task_seconds(f.p2l, p);
    out.t_m2m += cpu.task_seconds(f.m2m, p);
    out.t_l2l += cpu.task_seconds(f.l2l, p);

    up_id[id] = up.add_task(cpu.task_seconds(f.up(), p));
    down_id[id] = down.add_task(cpu.task_seconds(f.down(), p));
    if (n.parent >= 0 && up_id[n.parent] >= 0) {
      up.add_dependency(up_id[id], up_id[n.parent]);
      down.add_dependency(down_id[n.parent], down_id[id]);
    }
    if (!tree.is_effective_leaf(id))
      for (int c : n.children) self(self, c);
  };
  if (!tree.empty()) visit(visit, tree.root());

  out.up_makespan = up.num_tasks() ? up.makespan(p, ov) : 0.0;
  out.down_makespan = down.num_tasks() ? down.makespan(p, ov) : 0.0;
  return out;
}

}  // namespace

void NodeSimulator::set_cpu_cores(int cores) {
  if (cores < 1)
    throw std::invalid_argument(
        "NodeSimulator: CpuModelConfig::num_cores must be >= 1, got " +
        std::to_string(cores));
  cpu_.num_cores = cores;
  health_.reset(gpus_.devices.size(), cores);
}

ObservedStepTimes NodeSimulator::simulate_far_field(
    const ExpansionContext& ctx, const AdaptiveOctree& tree,
    const InteractionLists& lists, int m2l_passes) const {
  ObservedStepTimes t;
  // Preempted cores do not schedule tasks: the graph runs on what is left.
  CpuModelConfig cpu = cpu_;
  cpu.num_cores = effective_cores();
  const auto bd = build_and_schedule(ctx, tree, lists, cpu, m2l_passes);
  t.cpu_seconds = bd.up_makespan + bd.down_makespan;
  t.counts = count_operations(tree, lists);
  t.t_p2m = bd.t_p2m;
  t.t_m2m = bd.t_m2m;
  t.t_m2l = bd.t_m2l;
  t.t_l2l = bd.t_l2l;
  t.t_l2p = bd.t_l2p;
  t.t_m2p = bd.t_m2p;
  t.t_p2l = bd.t_p2l;
  return t;
}

double NodeSimulator::serial_all_cpu_seconds(const ExpansionContext& ctx,
                                             const AdaptiveOctree& tree,
                                             const InteractionLists& lists,
                                             int m2l_passes) const {
  CpuModelConfig serial = cpu_;
  serial.num_cores = 1;
  const auto bd = build_and_schedule(ctx, tree, lists, serial, m2l_passes);
  const auto counts = count_operations(tree, lists);
  const double p2p = serial.task_seconds(
      static_cast<double>(counts.p2p_interactions) * serial.p2p_flops, 1);
  return bd.up_makespan + bd.down_makespan + p2p;
}

double NodeSimulator::cpu_p2p_seconds(std::uint64_t interactions) const {
  const int p = effective_cores();
  // Direct interactions parallelize embarrassingly over target nodes, so the
  // wall clock is the contended per-core time divided by the active cores.
  return cpu_.task_seconds(static_cast<double>(interactions) * cpu_.p2p_flops,
                           p) /
         static_cast<double>(p);
}

ObservedStepTimes NodeSimulator::observe_step(const ExpansionContext& ctx,
                                              const AdaptiveOctree& tree,
                                              const InteractionLists& lists,
                                              double flops_per_interaction,
                                              int m2l_passes) const {
  ObservedStepTimes t = simulate_far_field(ctx, tree, lists, m2l_passes);
  charge_near_field(simulate_p2p_timing(tree, lists.p2p, flops_per_interaction,
                                        gpus_, &health_),
                    t);
  return t;
}

void NodeSimulator::charge_near_field(const GpuRunResult& gpu,
                                      ObservedStepTimes& times) const {
  if (gpu.cpu_fallback)
    times.cpu_p2p_seconds = cpu_p2p_seconds(gpu.total_interactions);
  else
    times.gpu_seconds = gpu.max_kernel_seconds;
  times.transfer_retries = gpu.timeline.retries;
}

double NodeSimulator::rebuild_seconds(std::size_t bodies, int nodes) const {
  // One radix-partition pass per tree level (~8-12 levels folded into the
  // per-body constant) plus node bookkeeping. The build parallelizes with
  // tasks but is bandwidth-bound, so only half the cores help.
  const double flops =
      250.0 * static_cast<double>(bodies) + 500.0 * static_cast<double>(nodes);
  return cpu_.task_seconds(flops, cpu_.num_cores) /
         std::max(1, cpu_.num_cores / 2);
}

double NodeSimulator::rebin_seconds(std::size_t bodies) const {
  return cpu_.task_seconds(80.0 * static_cast<double>(bodies),
                           cpu_.num_cores) /
         std::max(1, cpu_.num_cores / 2);
}

double NodeSimulator::enforce_seconds(int ops, std::size_t bodies) const {
  return cpu_.task_seconds(
      5000.0 * static_cast<double>(ops) +
          5.0 * static_cast<double>(bodies),
      cpu_.num_cores);
}

}  // namespace afmm
