// Colliding "galaxies": two Plummer spheres on a collision course -- the
// motivating workload of the paper's introduction. The distribution evolves
// dramatically (approach, merger, relaxation), so the full dynamic load
// balancer earns its keep: watch S and the balancer state adapt in the log.
//
//   $ ./galaxy_collision [N] [steps]
#include <cstdio>
#include <cstdlib>

#include "core/simulation.hpp"
#include "util/rng.hpp"

#include "example_args.hpp"

using namespace afmm;

namespace {

int run(int argc, char** argv) {
  const int n = example::positive_arg(argc, argv, 1, "N", 20000);
  const int steps = example::positive_arg(argc, argv, 2, "steps", 80);

  Rng rng(7);
  PlummerOptions opt;
  opt.scale_radius = 0.5;
  opt.max_radius = 4.0;
  auto bodies = two_cluster_collision(static_cast<std::size_t>(n), rng,
                                      /*separation=*/4.0,
                                      /*approach_speed=*/0.8, opt);

  SimulationConfig cfg;
  cfg.fmm.order = 4;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 12.0;
  cfg.dt = 0.02;
  cfg.softening = 0.02;
  cfg.balancer.strategy = LbStrategy::kFull;
  cfg.balancer.initial_S = 64;

  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(4));
  GravitySimulation sim(cfg, node, bodies);

  std::printf("colliding Plummer spheres: N=%d, %d steps, dt=%.3f\n"
              "step |    S | state        | cpu_s   gpu_s   lb_s    | "
              "depth | sep\n", n, steps, cfg.dt);

  for (int s = 0; s < steps; ++s) {
    const auto rec = sim.step();

    // Separation of the two halves' centers of mass.
    Vec3 ca, cb;
    const auto& pos = sim.bodies().positions;
    const std::size_t half = pos.size() / 2;
    for (std::size_t i = 0; i < half; ++i) ca += pos[i];
    for (std::size_t i = half; i < pos.size(); ++i) cb += pos[i];
    const double sep = norm(ca / static_cast<double>(half) -
                            cb / static_cast<double>(pos.size() - half));

    if (s % 5 == 0 || s + 1 == steps)
      std::printf("%4d | %4d | %-12s | %.5f %.5f %.5f | %5d | %.3f\n",
                  rec.step, rec.S, to_string(rec.state), rec.cpu_seconds,
                  rec.gpu_seconds, rec.lb_seconds, rec.stats.depth, sep);
  }
  std::printf("final energy: %.6f\n", sim.total_energy());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return example::guarded_main("galaxy_collision [N] [steps]",
                               [&] { return run(argc, argv); });
}
