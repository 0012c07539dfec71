// Work-conserving makespan simulator for OpenMP-style task DAGs.
//
// The paper parallelizes every tree phase with "#pragma omp task" per child
// and a taskwait at the parent (Section III.B). The numeric phases of this
// library execute with real OpenMP tasks; this simulator replays the same
// task graph on P *virtual* cores to obtain the CPU Time a P-core machine
// would observe -- the quantity the load balancer needs and the quantity
// Fig. 6 reports. A greedy list scheduler is an accurate stand-in for an
// OpenMP work-stealing runtime at this granularity (Brent's bound is tight
// for these wide, shallow tree DAGs).
//
// Contract (total for all inputs, matching gpusim/partition.hpp):
//   * add_task rejects negative or non-finite durations with
//     std::invalid_argument;
//   * add_dependency rejects out-of-range ids and self-edges with
//     std::invalid_argument;
//   * makespan rejects workers < 1; makespan and critical_path reject
//     negative or non-finite per-task overhead and a cyclic graph with
//     std::invalid_argument (a cycle is a caller error in the *input* graph,
//     not an internal inconsistency);
//   * an empty graph has zero total work, critical path, and makespan.
//
// Determinism: ready tasks are dispatched in ascending task id. When several
// tasks become ready at the same virtual instant -- including all tasks
// unblocked by completions at that instant -- they compete by id, never by
// the order their dependency edges were inserted, so two structurally equal
// graphs built in different edge orders schedule identically.
#pragma once

#include <cstdint>
#include <vector>

namespace afmm {

class TaskGraphSim {
 public:
  // Adds a task with the given execution time; returns its id.
  int add_task(double seconds);

  // `before` must finish before `after` may start.
  void add_dependency(int before, int after);

  int num_tasks() const { return static_cast<int>(duration_.size()); }
  double total_work() const;  // sum of task durations

  // Longest chain through the DAG (critical path), including per-task
  // overhead; the P -> infinity limit of the makespan.
  double critical_path(double per_task_overhead_seconds = 0.0) const;

  // One dispatched task of the executed schedule. `worker` is the worker
  // slot in [0, workers); `finish - start` includes the per-task overhead.
  struct Scheduled {
    int task = -1;
    int worker = -1;
    double start = 0.0;
    double finish = 0.0;
  };

  // Greedy list-scheduled makespan on `workers` cores. Ready tasks are
  // dispatched in ascending task id; each task pays
  // `per_task_overhead_seconds` extra (task creation + scheduling cost).
  // When `schedule` is non-null it receives the executed dispatch, ordered
  // by (start, task id).
  double makespan(int workers, double per_task_overhead_seconds = 0.0,
                  std::vector<Scheduled>* schedule = nullptr) const;

 private:
  std::vector<double> duration_;
  std::vector<std::vector<int>> out_edges_;
  std::vector<int> in_degree_;
};

}  // namespace afmm
