// Volna hazard-sweep ensemble: many tsunami scenarios, one process, one
// worker pool (opv::serve::Ensemble). Each instance is a full Volna
// simulation — its own LocalCtx and pinned loop handles — built by
// opv::volna::hazard_factory from a shared mesh and a deterministic
// initial-condition parameter sweep; the scheduler interleaves their
// timesteps so small-mesh steps batch together and fill the machine. On a
// shared mesh every instance runs over one frozen mesh part and holds only
// its state; the set-up line prints what the first instance (which builds
// that part) cost against all the others.
//
//   ./volna_hazard [--n=96] [--instances=8] [--steps=40] [--workers=0]
//                  [--backend=seq] [--batch=4] [--mixed]
//                  [--cadence=N] [--retries=N] [--fault=STEP]
//                  [--checkpoint=FILE] [--target=N] [--resume]
//
// --workers=0 sizes the pool to the hardware; --batch is the interleave
// grain (steps per queue grab). --mixed gives every instance its OWN mesh
// size (n, n+8, n+16, ...) — the per-instance-plans regime — instead of
// one shared mesh where all instances reuse a single plan build.
//
// Resilience flags (serve/resilience.hpp): --cadence takes a checkpoint
// every N steps per instance and --retries allows N restore-and-retry
// recovery attempts; --fault=STEP plants a NaN in instance 0's state after
// its STEPth step (serve/fault.hpp) to demonstrate detection + recovery.
// --checkpoint=FILE persists the ensemble as an OPVK file after the run
// (with --target recording the sweep's eventual goal); a later invocation
// with --resume --checkpoint=FILE rebuilds the instances, restores them,
// and runs TO the saved target — the kill-and-resume workflow:
//
//   ./volna_hazard --steps=20 --target=40 --checkpoint=sweep.opvk
//   ./volna_hazard --resume --checkpoint=sweep.opvk   # finishes steps 21..40
//
// After the run the example prints the hazard summary (per-scenario peak
// gauge height and volume drift) and the stats table: the ensemble summary
// row (instances/sec, pool occupancy, plan-cache hit rate) over the
// per-instance scoped loop rows ("hazard/i000/..."), demonstrating stats
// isolation across instances sharing one registry.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/volna/hazard.hpp"
#include "common/cli.hpp"
#include "common/timer.hpp"
#include "mesh/generators.hpp"
#include "mesh/io.hpp"
#include "perf/table.hpp"
#include "serve/ensemble.hpp"
#include "serve/fault.hpp"

int main(int argc, char** argv) {
  const opv::Cli cli(argc, argv);
  const auto n = static_cast<opv::idx_t>(cli.get_int("n", 96));
  const int instances = static_cast<int>(cli.get_int("instances", 8));
  const int steps = static_cast<int>(cli.get_int("steps", 40));
  const int workers = static_cast<int>(cli.get_int("workers", 0));
  const int batch = static_cast<int>(cli.get_int("batch", 4));
  const bool mixed = cli.has("mixed");
  const int cadence = static_cast<int>(cli.get_int("cadence", 0));
  const int retries = static_cast<int>(cli.get_int("retries", 0));
  const auto fault = cli.get_int("fault", 0);
  const std::string chkfile = cli.get("checkpoint", "");
  const auto target = cli.get_int("target", 0);
  const bool resume = cli.has("resume");
  if (resume && chkfile.empty()) {
    std::fprintf(stderr, "volna_hazard: --resume needs --checkpoint=FILE\n");
    return 2;
  }

  opv::ExecConfig cfg;
  cfg.backend = opv::volna::parse_backend(cli.get("backend", "seq"));
  cfg.nthreads = 1;  // parallelism comes from instances, not from one loop

  opv::StatsRegistry::instance().clear();
  opv::serve::EnsembleOptions opts;
  opts.name = "hazard";
  opts.workers = workers;
  opts.batch_steps = batch;
  if (cadence > 0 || retries > 0) {
    opts.health.checkpoint_every = cadence > 0 ? cadence : 10;
    opts.health.check_every = 1;
    opts.health.retry.max_attempts = retries > 0 ? retries : 2;
  }

  // --fault plants a NaN in instance 0's state dat after its Nth step; with
  // a retry policy the scheduler detects it (healthy() scan), restores the
  // last checkpoint and replays — the hazard table still prints "ok".
  auto faulty = [&](opv::serve::InstanceFactory f) {
    if (fault <= 0) return f;
    opv::serve::InstanceFaultPlan plan;
    plan.kind = opv::serve::InstanceFaultKind::Corrupt;
    plan.at_step = fault;
    plan.dat = "values";
    return opv::serve::with_fault(std::move(f), plan, /*fault_id=*/0);
  };

  opv::serve::Ensemble ensemble(opts);
  const auto sweep = opv::volna::hazard_sweep(instances);
  if (mixed) {
    // Per-instance meshes: every instance gets a different resolution, so
    // every instance builds (and caches) its own plans.
    for (int i = 0; i < instances; ++i) {
      const auto ni = n + 8 * static_cast<opv::idx_t>(i);
      const auto mi = opv::mesh::make_tri_periodic(ni, ni, 10.0, 10.0);
      ensemble.add_instance(faulty(opv::volna::hazard_factory(mi, {sweep[i]}, cfg)));
    }
  } else {
    const auto m = opv::mesh::make_tri_periodic(n, n, 10.0, 10.0);
    const auto factory = faulty(opv::volna::hazard_factory(m, sweep, cfg));
    // The first instance declares the shared mesh part; the others bind to it.
    const opv::WallTimer first;
    ensemble.add_instances(1, factory);
    const double first_s = first.seconds();
    const opv::WallTimer rest;
    ensemble.add_instances(instances - 1, factory);
    std::printf("set-up: first instance %.4f s (declares the shared mesh part), "
                "%d more %.4f s\n",
                first_s, instances - 1, rest.seconds());
  }
  std::printf("hazard ensemble: %d instances (%s mesh, n=%d), %d steps, %d workers, batch=%d\n\n",
              instances, mixed ? "per-instance" : "shared", n, steps, ensemble.workers(),
              batch);

  std::int64_t goal = steps;
  if (resume) {
    const auto chk = opv::mesh::read_checkpoint(chkfile);
    ensemble.restore(chk);
    goal = chk.target_steps > 0 ? chk.target_steps : steps;
    std::printf("resumed from %s: running to cumulative step %lld\n\n", chkfile.c_str(),
                static_cast<long long>(goal));
  }
  const auto rep = resume ? ensemble.run_to(goal) : ensemble.run(steps);

  if (!chkfile.empty()) {
    const auto saved_target = resume ? goal : (target > 0 ? target : 0);
    opv::mesh::write_checkpoint(ensemble.save(saved_target), chkfile);
    std::printf("checkpoint written to %s (target %lld)\n\n", chkfile.c_str(),
                static_cast<long long>(saved_target));
  }

  std::printf("scenario        amp    width   peak h    dt         volume drift%s\n",
              "   status");
  for (int i = 0; i < instances; ++i) {
    opv::serve::Instance* ip = &ensemble.instance(i);
    if (auto* f = dynamic_cast<opv::serve::FaultyInstance*>(ip)) ip = &f->inner();
    auto& inst = dynamic_cast<opv::volna::HazardInstance&>(*ip);
    const auto& ir = rep.instances[static_cast<std::size_t>(i)];
    if (ir.failed()) {
      std::printf("%-14s  failed: %s\n", ir.scope.c_str(), ir.error.c_str());
      continue;
    }
    const auto state = inst.state();
    float peak = 0.0f;
    for (std::size_t c = 0; c < state.size() / 4; ++c)
      peak = std::max(peak, state[4 * c]);
    const double drift =
        std::abs(inst.volume() - inst.initial_volume()) / inst.initial_volume();
    std::printf("%-14s  %.3f  %.4f  %.4f   %.3e  %.3e      ok\n", ir.scope.c_str(),
                inst.scenario().amp, inst.scenario().width, static_cast<double>(peak),
                inst.last_dt(), drift);
  }

  std::printf("\n%lld steps over %d instances in %.3f s: %.2f instances/s, "
              "occupancy %.1f%%, plan cache %lld hits / %lld builds\n\n",
              static_cast<long long>(rep.steps), instances, rep.seconds,
              rep.instances_per_sec(), 100.0 * rep.occupancy(),
              static_cast<long long>(rep.plan_hits), static_cast<long long>(rep.plan_misses));
  if (rep.checkpoints + rep.retries > 0)
    std::printf("resilience: %lld checkpoints (%.4f s), %lld recovery attempts, "
                "%lld restores, %lld degraded\n\n",
                static_cast<long long>(rep.checkpoints), rep.checkpoint_seconds,
                static_cast<long long>(rep.retries), static_cast<long long>(rep.restores),
                static_cast<long long>(rep.degraded));

  const auto& reg = opv::StatsRegistry::instance();
  opv::perf::loop_stats_table(reg.all(), reg.all_chains(), reg.all_ensembles()).print();
  return rep.failed > 0 ? 1 : 0;
}
