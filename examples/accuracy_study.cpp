// Accuracy study: relative error of the AFMM against direct summation as a
// function of the expansion order p and the acceptance parameter theta.
// Useful for picking (p, theta) for a target accuracy; the cost columns show
// the accuracy/work trade-off on the simulated node.
//
//   $ ./accuracy_study [N]
#include <cstdio>
#include <cstdlib>

#include "core/fmm_solver.hpp"
#include "dist/distributions.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include "example_args.hpp"

using namespace afmm;

namespace {

int run(int argc, char** argv) {
  const int n = example::positive_arg(argc, argv, 1, "N", 2000);

  Rng rng(11);
  auto set = uniform_cube(static_cast<std::size_t>(n), rng, {0.5, 0.5, 0.5},
                          0.5);

  AdaptiveOctree tree;
  TreeConfig tc;
  tc.root_center = {0.5, 0.5, 0.5};
  tc.root_half = 0.5;
  tc.leaf_capacity = 24;
  tree.build(set.positions, tc);

  const auto ref = gravity_direct_all(GravityKernel{}, set.positions,
                                      set.masses);
  std::vector<double> exact;
  for (const auto& r : ref) {
    exact.push_back(r.pot);
    for (int d = 0; d < 3; ++d) exact.push_back(r.grad[d]);
  }

  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(1));
  Table table({"p", "theta", "rel_l2_err", "m2l_pairs", "p2p_int", "cpu_s"});
  for (int p : {2, 4, 6, 8}) {
    for (double theta : {0.4, 0.55, 0.7}) {
      FmmConfig cfg;
      cfg.order = p;
      cfg.traversal.theta = theta;
      GravitySolver solver(cfg, node);
      const auto res = solver.solve(tree, set.positions, set.masses);
      std::vector<double> approx;
      for (std::size_t i = 0; i < set.size(); ++i) {
        approx.push_back(res.potential[i]);
        for (int d = 0; d < 3; ++d) approx.push_back(res.gradient[i][d]);
      }
      table.add_row({Table::integer(p), Table::num(theta),
                     Table::num(rel_l2_error(approx, exact), 3),
                     Table::integer(static_cast<long long>(res.stats.m2l_pairs)),
                     Table::integer(
                         static_cast<long long>(res.stats.p2p_interactions)),
                     Table::num(res.times.cpu_seconds)});
    }
  }
  table.print("AFMM accuracy vs expansion order p and MAC theta");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return example::guarded_main("accuracy_study [N]",
                               [&] { return run(argc, argv); });
}
