#include "cpusched/task_sim.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

namespace afmm {
namespace {

void check_duration(double seconds) {
  // !(x >= 0) also catches NaN.
  if (!std::isfinite(seconds) || !(seconds >= 0.0))
    throw std::invalid_argument(
        "TaskGraphSim: task duration must be finite and >= 0, got " +
        std::to_string(seconds));
}

void check_overhead(double seconds) {
  if (!std::isfinite(seconds) || !(seconds >= 0.0))
    throw std::invalid_argument(
        "TaskGraphSim: per_task_overhead_seconds must be finite and >= 0, "
        "got " +
        std::to_string(seconds));
}

}  // namespace

int TaskGraphSim::add_task(double seconds) {
  check_duration(seconds);
  duration_.push_back(seconds);
  out_edges_.emplace_back();
  in_degree_.push_back(0);
  return static_cast<int>(duration_.size()) - 1;
}

void TaskGraphSim::add_dependency(int before, int after) {
  const int n = num_tasks();
  if (before < 0 || before >= n || after < 0 || after >= n)
    throw std::invalid_argument(
        "TaskGraphSim: dependency references unknown task (" +
        std::to_string(before) + " -> " + std::to_string(after) + ", have " +
        std::to_string(n) + " tasks)");
  if (before == after)
    throw std::invalid_argument("TaskGraphSim: task " + std::to_string(before) +
                                " cannot depend on itself");
  out_edges_[static_cast<std::size_t>(before)].push_back(after);
  ++in_degree_[static_cast<std::size_t>(after)];
}

double TaskGraphSim::total_work() const {
  double sum = 0.0;
  for (double d : duration_) sum += d;
  return sum;
}

double TaskGraphSim::critical_path(double per_task_overhead_seconds) const {
  check_overhead(per_task_overhead_seconds);
  // Kahn order; dist[t] = longest finishing time ending at t.
  std::vector<int> indeg = in_degree_;
  std::vector<double> dist(duration_.size(), 0.0);
  std::queue<int> q;
  for (int t = 0; t < num_tasks(); ++t)
    if (indeg[t] == 0) q.push(t);
  double best = 0.0;
  int seen = 0;
  while (!q.empty()) {
    const int t = q.front();
    q.pop();
    ++seen;
    dist[t] += duration_[t] + per_task_overhead_seconds;
    best = std::max(best, dist[t]);
    for (int nxt : out_edges_[t]) {
      dist[nxt] = std::max(dist[nxt], dist[t]);
      if (--indeg[nxt] == 0) q.push(nxt);
    }
  }
  if (seen != num_tasks())
    throw std::invalid_argument("TaskGraphSim: dependency cycle");
  return best;
}

double TaskGraphSim::makespan(int workers, double per_task_overhead_seconds,
                              std::vector<Scheduled>* schedule) const {
  if (workers < 1)
    throw std::invalid_argument("TaskGraphSim: workers must be >= 1, got " +
                                std::to_string(workers));
  check_overhead(per_task_overhead_seconds);
  if (schedule) schedule->clear();
  const std::size_t n = duration_.size();
  if (n == 0) return 0.0;

  std::vector<int> indeg = in_degree_;
  // Ready tasks compete by ascending task id (min-heap), never by edge
  // insertion order.
  using MinHeap = std::priority_queue<int, std::vector<int>, std::greater<>>;
  MinHeap ready;
  for (std::size_t i = 0; i < n; ++i)
    if (indeg[i] == 0) ready.push(static_cast<int>(i));

  // Free worker slots by ascending slot id, for a deterministic schedule.
  MinHeap free_slots;
  for (int w = 0; w < workers; ++w) free_slots.push(w);

  // Min-heap of (finish time, task id): equal-time completions pop in
  // task-id order.
  using Event = std::pair<double, int>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> running;
  std::vector<int> slot_of(n, -1);
  std::vector<double> start_of(n, 0.0);

  double now = 0.0;
  double end = 0.0;
  std::size_t done = 0;

  auto dispatch = [&] {
    while (!free_slots.empty() && !ready.empty()) {
      const int t = ready.top();
      ready.pop();
      const int slot = free_slots.top();
      free_slots.pop();
      const std::size_t ti = static_cast<std::size_t>(t);
      slot_of[ti] = slot;
      start_of[ti] = now;
      running.emplace(now + duration_[ti] + per_task_overhead_seconds, t);
    }
  };

  dispatch();
  while (done < n) {
    if (running.empty())
      // Tasks remain but none can run: the input graph has a cycle.
      throw std::invalid_argument("TaskGraphSim: dependency cycle");
    now = running.top().first;
    end = std::max(end, now);
    // Drain every completion at this instant before dispatching, so all
    // tasks that become ready at time `now` compete by id in one round.
    while (!running.empty() && running.top().first == now) {
      const int t = running.top().second;
      running.pop();
      ++done;
      const std::size_t ti = static_cast<std::size_t>(t);
      free_slots.push(slot_of[ti]);
      if (schedule) schedule->push_back({t, slot_of[ti], start_of[ti], now});
      for (int nxt : out_edges_[ti])
        if (--indeg[static_cast<std::size_t>(nxt)] == 0) ready.push(nxt);
    }
    dispatch();
  }
  if (schedule)
    std::sort(schedule->begin(), schedule->end(),
              [](const Scheduled& a, const Scheduled& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.task < b.task;
              });
  return end;
}

}  // namespace afmm
