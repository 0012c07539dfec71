// Regularized-Stokeslet flow around an immersed flexible boundary: a helical
// fiber driven by tangential forces (the paper's fluid-dynamics problem,
// after [Cortez, Fauci & Medovikov 2005]). Velocities are evaluated with the
// 4-pass harmonic AFMM far field plus regularized near field, validated
// against direct summation, and the fiber is advected a few Stokes steps.
//
//   $ ./stokes_fiber [N] [steps]
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/fmm_solver.hpp"
#include "dist/distributions.hpp"
#include "util/stats.hpp"

#include "example_args.hpp"

using namespace afmm;

namespace {

int run(int argc, char** argv) {
  const int n = example::positive_arg(argc, argv, 1, "N", 3000);
  const int steps = example::positive_arg(argc, argv, 2, "steps", 10);

  std::vector<Vec3> forces;
  auto pos = helical_fiber(static_cast<std::size_t>(n), /*radius=*/0.3,
                           /*pitch=*/0.12, /*turns=*/6.0, forces);

  const double epsilon = 2e-3;  // regularization blob size
  FmmConfig fmm;
  fmm.order = 6;
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));
  StokesletSolver solver(fmm, node, epsilon);

  std::printf("helical fiber: N=%d Stokeslets, eps=%.0e, order=%d\n", n,
              epsilon, fmm.order);

  for (int s = 0; s < steps; ++s) {
    AdaptiveOctree tree;
    TreeConfig tc = fit_cube(pos);
    tc.leaf_capacity = 48;
    tree.build(pos, tc);

    const auto res = solver.solve(tree, pos, forces);

    if (s == 0) {
      // Validate the first solve against O(N^2) direct summation.
      const auto ref = stokeslet_direct_all(StokesletKernel(epsilon), pos,
                                            forces);
      std::vector<double> a, b;
      for (int i = 0; i < n; ++i)
        for (int d = 0; d < 3; ++d) {
          a.push_back(res.velocity[i][d]);
          b.push_back(ref[i].u[d]);
        }
      std::printf("FMM vs direct relative L2 error: %.2e\n",
                  rel_l2_error(a, b));
      std::printf("virtual node times: CPU %.4fs (4 harmonic passes) "
                  "GPU %.4fs\n", res.times.cpu_seconds, res.times.gpu_seconds);
    }

    // Advect (Stokes flow: velocity, not acceleration). The 1/(8 pi mu)
    // prefactor is folded into the time step.
    const double dt = 1e-4;
    double mean_speed = 0.0;
    for (int i = 0; i < n; ++i) {
      pos[i] += dt * res.velocity[i];
      mean_speed += norm(res.velocity[i]);
    }
    std::printf("step %2d: mean |u| = %.4f\n", s, mean_speed / n);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return example::guarded_main("stokes_fiber [N] [steps]",
                               [&] { return run(argc, argv); });
}
