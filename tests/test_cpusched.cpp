#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cpusched/task_sim.hpp"

namespace afmm {
namespace {

TEST(TaskSim, SerialEqualsTotalWork) {
  TaskGraphSim g;
  for (int i = 0; i < 10; ++i) g.add_task(1.0);
  EXPECT_DOUBLE_EQ(g.makespan(1), 10.0);
  EXPECT_DOUBLE_EQ(g.total_work(), 10.0);
}

TEST(TaskSim, IndependentTasksScalePerfectly) {
  TaskGraphSim g;
  for (int i = 0; i < 16; ++i) g.add_task(1.0);
  EXPECT_DOUBLE_EQ(g.makespan(4), 4.0);
  EXPECT_DOUBLE_EQ(g.makespan(16), 1.0);
  EXPECT_DOUBLE_EQ(g.makespan(32), 1.0);  // no benefit past the task count
}

TEST(TaskSim, ChainIsSerialRegardlessOfWorkers) {
  TaskGraphSim g;
  int prev = g.add_task(1.0);
  for (int i = 1; i < 8; ++i) {
    const int t = g.add_task(1.0);
    g.add_dependency(prev, t);
    prev = t;
  }
  EXPECT_DOUBLE_EQ(g.makespan(8), 8.0);
  EXPECT_DOUBLE_EQ(g.critical_path(), 8.0);
}

TEST(TaskSim, ForkJoinShape) {
  // root -> 4 children -> join task.
  TaskGraphSim g;
  const int root = g.add_task(1.0);
  const int join = g.add_task(1.0);
  for (int i = 0; i < 4; ++i) {
    const int c = g.add_task(2.0);
    g.add_dependency(root, c);
    g.add_dependency(c, join);
  }
  EXPECT_DOUBLE_EQ(g.makespan(4), 1.0 + 2.0 + 1.0);
  EXPECT_DOUBLE_EQ(g.makespan(1), 1.0 + 8.0 + 1.0);
  EXPECT_DOUBLE_EQ(g.makespan(2), 1.0 + 4.0 + 1.0);
}

TEST(TaskSim, BrentBoundSandwich) {
  // Greedy schedule obeys max(W/P, CP) <= makespan <= W/P + CP.
  TaskGraphSim g;
  std::vector<int> prev_layer;
  for (int layer = 0; layer < 5; ++layer) {
    std::vector<int> cur;
    for (int i = 0; i < 7; ++i) {
      const int t = g.add_task(0.5 + 0.1 * ((layer * 7 + i) % 5));
      for (std::size_t j = 0; j < prev_layer.size(); j += 2)
        g.add_dependency(prev_layer[j], t);
      cur.push_back(t);
    }
    prev_layer = cur;
  }
  const double w = g.total_work();
  const double cp = g.critical_path();
  for (int p : {1, 2, 4, 8}) {
    const double m = g.makespan(p);
    EXPECT_GE(m, std::max(w / p, cp) - 1e-12) << "p=" << p;
    EXPECT_LE(m, w / p + cp + 1e-12) << "p=" << p;
  }
}

TEST(TaskSim, MakespanMonotoneInWorkers) {
  TaskGraphSim g;
  for (int i = 0; i < 100; ++i) g.add_task(0.1 + (i % 7) * 0.03);
  double prev = 1e30;
  for (int p : {1, 2, 3, 5, 9, 17}) {
    const double m = g.makespan(p);
    EXPECT_LE(m, prev + 1e-12);
    prev = m;
  }
}

TEST(TaskSim, OverheadAddsPerTask) {
  TaskGraphSim g;
  for (int i = 0; i < 10; ++i) g.add_task(1.0);
  EXPECT_DOUBLE_EQ(g.makespan(1, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(g.critical_path(0.5), 1.5);
}

TEST(TaskSim, DetectsCycle) {
  TaskGraphSim g;
  const int a = g.add_task(1.0);
  const int b = g.add_task(1.0);
  g.add_dependency(a, b);
  g.add_dependency(b, a);
  EXPECT_THROW(g.makespan(2), std::logic_error);
  EXPECT_THROW(g.critical_path(), std::logic_error);
}

TEST(TaskSim, RejectsZeroWorkers) {
  TaskGraphSim g;
  g.add_task(1.0);
  EXPECT_THROW(g.makespan(0), std::invalid_argument);
}

TEST(TaskSim, EmptyGraphIsZero) {
  TaskGraphSim g;
  EXPECT_DOUBLE_EQ(g.makespan(4), 0.0);
  EXPECT_DOUBLE_EQ(g.critical_path(), 0.0);
}

TEST(TaskSim, WideTreeSpeedupNearLinear) {
  // A tree of 8^3 leaf tasks under a 2-level spawn hierarchy: with 64
  // workers the speedup should be near 64 when leaf work dominates.
  TaskGraphSim g;
  const int root = g.add_task(0.001);
  for (int i = 0; i < 8; ++i) {
    const int mid = g.add_task(0.001);
    g.add_dependency(root, mid);
    for (int j = 0; j < 8; ++j) {
      const int lo = g.add_task(0.001);
      g.add_dependency(mid, lo);
      for (int k = 0; k < 8; ++k) {
        const int leaf = g.add_task(1.0);
        g.add_dependency(lo, leaf);
      }
    }
  }
  const double s1 = g.makespan(1);
  const double s64 = g.makespan(64);
  EXPECT_GT(s1 / s64, 55.0);
}

TEST(TaskSim, DiamondScheduleIgnoresEdgeInsertionOrder) {
  // Same diamond DAG (a -> {b, c} -> d) with edges declared in two
  // different orders: the dispatch order is a property of the graph (ready
  // tasks run by ascending id), never of add_dependency call order.
  auto build = [](bool reversed) {
    TaskGraphSim g;
    const int a = g.add_task(1.0);
    const int b = g.add_task(2.0);
    const int c = g.add_task(3.0);
    const int d = g.add_task(1.0);
    if (reversed) {
      g.add_dependency(c, d);
      g.add_dependency(b, d);
      g.add_dependency(a, c);
      g.add_dependency(a, b);
    } else {
      g.add_dependency(a, b);
      g.add_dependency(a, c);
      g.add_dependency(b, d);
      g.add_dependency(c, d);
    }
    return g;
  };
  for (int p : {1, 2, 4}) {
    std::vector<TaskGraphSim::Scheduled> s1, s2;
    const double m1 = build(false).makespan(p, 0.0, &s1);
    const double m2 = build(true).makespan(p, 0.0, &s2);
    EXPECT_DOUBLE_EQ(m1, m2) << "p=" << p;
    ASSERT_EQ(s1.size(), s2.size()) << "p=" << p;
    for (std::size_t i = 0; i < s1.size(); ++i) {
      EXPECT_EQ(s1[i].task, s2[i].task) << "p=" << p << " i=" << i;
      EXPECT_EQ(s1[i].worker, s2[i].worker) << "p=" << p << " i=" << i;
      EXPECT_DOUBLE_EQ(s1[i].start, s2[i].start) << "p=" << p << " i=" << i;
      EXPECT_DOUBLE_EQ(s1[i].finish, s2[i].finish) << "p=" << p << " i=" << i;
    }
  }
  // With one worker the serial order itself is pinned: a, b, c, d.
  std::vector<TaskGraphSim::Scheduled> serial;
  build(true).makespan(1, 0.0, &serial);
  ASSERT_EQ(serial.size(), 4u);
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i].task, static_cast<int>(i));
}

TEST(TaskSim, RejectsBadDurations) {
  TaskGraphSim g;
  EXPECT_THROW(g.add_task(-1.0), std::invalid_argument);
  EXPECT_THROW(g.add_task(std::nan("")), std::invalid_argument);
  EXPECT_THROW(g.add_task(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_EQ(g.num_tasks(), 0);  // rejected tasks leave no residue
}

TEST(TaskSim, RejectsBadOverhead) {
  TaskGraphSim g;
  g.add_task(1.0);
  EXPECT_THROW(g.makespan(1, -1e-9), std::invalid_argument);
  EXPECT_THROW(g.makespan(1, std::nan("")), std::invalid_argument);
  EXPECT_THROW(g.critical_path(std::nan("")), std::invalid_argument);
}

TEST(TaskSim, RejectsBadDependencies) {
  TaskGraphSim g;
  const int a = g.add_task(1.0);
  EXPECT_THROW(g.add_dependency(a, a), std::invalid_argument);
  EXPECT_THROW(g.add_dependency(a, 7), std::invalid_argument);
  EXPECT_THROW(g.add_dependency(-1, a), std::invalid_argument);
  EXPECT_THROW(g.makespan(-3), std::invalid_argument);
}

TEST(TaskSim, CycleIsInvalidArgument) {
  // DetectsCycle above accepts any logic_error; the contract is the
  // stricter std::invalid_argument (which IS-A logic_error).
  TaskGraphSim g;
  const int a = g.add_task(1.0);
  const int b = g.add_task(1.0);
  const int c = g.add_task(1.0);
  g.add_dependency(a, b);
  g.add_dependency(b, c);
  g.add_dependency(c, a);
  EXPECT_THROW(g.makespan(4), std::invalid_argument);
  EXPECT_THROW(g.critical_path(), std::invalid_argument);
}

// Tiny deterministic generator (SplitMix64) so the property tests are
// seeded and reproducible without pulling in util/rng.
std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TEST(TaskSim, RandomDagsObeyGreedyBounds) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    std::uint64_t s = seed * 0x5851f42d4c957f2dull;
    TaskGraphSim g;
    const int n = 5 + static_cast<int>(splitmix(s) % 60);
    for (int i = 0; i < n; ++i)
      g.add_task(1e-4 * static_cast<double>(splitmix(s) % 10'000));
    // Edges only from lower to higher id: acyclic by construction.
    for (int t = 1; t < n; ++t)
      for (int e = static_cast<int>(splitmix(s) % 3); e > 0; --e)
        g.add_dependency(static_cast<int>(splitmix(s) %
                                          static_cast<std::uint64_t>(t)),
                         t);
    const double ov = (seed % 3 == 0) ? 2e-4 : 0.0;
    const double work = g.total_work() + n * ov;
    const double cp = g.critical_path(ov);
    // One worker serializes everything, overhead included.
    EXPECT_NEAR(g.makespan(1, ov), work, 1e-9 * std::max(1.0, work))
        << "seed=" << seed;
    for (int p : {2, 3, 7, 16}) {
      const double m = g.makespan(p, ov);
      EXPECT_GE(m, std::max(work / p, cp) - 1e-12)
          << "seed=" << seed << " p=" << p;
      EXPECT_LE(m, work / p + cp + 1e-12) << "seed=" << seed << " p=" << p;
    }
  }
}

TEST(TaskSim, ScheduleIsWellFormed) {
  // Random DAG: the reported schedule must respect worker exclusivity and
  // every dependency edge.
  std::uint64_t s = 0xabcdef12345ull;
  TaskGraphSim g;
  const int n = 40;
  for (int i = 0; i < n; ++i)
    g.add_task(1e-3 * static_cast<double>(1 + splitmix(s) % 500));
  std::vector<std::pair<int, int>> edges;
  for (int t = 1; t < n; ++t)
    if (splitmix(s) % 2 == 0) {
      const int from =
          static_cast<int>(splitmix(s) % static_cast<std::uint64_t>(t));
      g.add_dependency(from, t);
      edges.emplace_back(from, t);
    }
  const int workers = 3;
  const double ov = 1e-4;
  std::vector<TaskGraphSim::Scheduled> sched;
  const double m = g.makespan(workers, ov, &sched);
  ASSERT_EQ(sched.size(), static_cast<std::size_t>(n));
  std::vector<TaskGraphSim::Scheduled> by_task(n);
  for (const auto& e : sched) {
    ASSERT_GE(e.task, 0);
    ASSERT_LT(e.task, n);
    by_task[static_cast<std::size_t>(e.task)] = e;
    EXPECT_GE(e.worker, 0);
    EXPECT_LT(e.worker, workers);
    EXPECT_LE(e.finish, m + 1e-12);
    EXPECT_GE(e.finish, e.start);
    EXPECT_GE(e.start, 0.0);
  }
  // Dependencies: successor starts at or after predecessor finishes.
  for (const auto& [from, to] : edges)
    EXPECT_GE(by_task[static_cast<std::size_t>(to)].start,
              by_task[static_cast<std::size_t>(from)].finish - 1e-12);
  // Exclusivity: no two tasks on the same worker slot run at once.
  auto concurrent = [](const TaskGraphSim::Scheduled& a,
                       const TaskGraphSim::Scheduled& b) {
    return a.start < b.finish - 1e-12 && b.start < a.finish - 1e-12;
  };
  for (int a = 0; a < n; ++a)
    for (int b = a + 1; b < n; ++b)
      if (by_task[a].worker == by_task[b].worker) {
        EXPECT_FALSE(concurrent(by_task[a], by_task[b]))
            << "tasks " << a << " and " << b;
      }
}

}  // namespace
}  // namespace afmm
