// airfoil-large: one double-precision Airfoil simulation on the paper's
// large O-mesh (2400 x 1200 cells), edge order shuffled by the seed and
// renumbered by the context, Simd backend, default layout and block size,
// `threads` OpenMP threads, steps run back to back.
#include <memory>

#include "apps/airfoil/airfoil.hpp"
#include "common/timer.hpp"
#include "core/context.hpp"
#include "core/plan.hpp"
#include "mesh/generators.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

/// Step time on the reference host (4 threads): sizes the timed work from
/// --seconds, never below kMinSteps samples for the step median. At 100
/// steps (--seconds 22) step_p90_ms has 10 samples beyond it.
constexpr double kNominalStepSeconds = 0.22;
constexpr int kMinSteps = 40;

/// Steps the Seq reference replays at each end of the run. A full-length
/// Seq reference (about 1.4 s a step on the reference host) would not fit
/// a run's time budget, so the check covers the first kCheckSteps steps
/// from the inputs and the last kCheckSteps from the run's own state.
constexpr int kCheckSteps = 2;

using App = opv::airfoil::Airfoil<double, opv::LocalCtx>;

}  // namespace

Outcome run_airfoil_large(const Options& opt, Tracer& tracer) {
  Outcome out;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  const opv::idx_t ni = opt.tiny ? 96 : 2400, nj = opt.tiny ? 48 : 1200;
  const int steps =
      opt.tiny ? 12
               : std::max(kMinSteps, static_cast<int>(std::lround(opt.seconds / kNominalStepSeconds)));

  // ---- inputs: the O-mesh, edge order shuffled by the seed ----------------
  opv::mesh::UnstructuredMesh m;
  {
    Tracer::Scope span(tr, "mesh.generate", -1, -1);
    const opv::WallTimer t;
    m = opv::mesh::make_airfoil_omesh(ni, nj);
    opv::mesh::shuffle_edges(m, derive_seed(opt.seed, 1));
    out.layer.set("mesh.build_s", "s", t.seconds());
  }

  // ---- set-up, repeated; the last one is measured --------------------------
  opv::ExecConfig cfg;
  cfg.backend = opv::Backend::Simd;
  cfg.nthreads = opt.threads;
  std::unique_ptr<opv::LocalCtx> ctx;
  std::unique_ptr<App> app;
  std::vector<double> setup_s, setup_cpu_s, construct_s, warmup_s;
  opv::PlanCache::Counters plans_before{};
  for (int rep = 0; rep < kSetupReps; ++rep) {
    app.reset();
    ctx.reset();
    opv::PlanCache::instance().clear();  // every set-up starts cold, as a fresh process does
    opv::StatsRegistry::instance().clear();
    plans_before = opv::PlanCache::instance().counters();
    const double c0 = process_cpu_seconds();
    const opv::WallTimer t;
    {
      Tracer::Scope span(tr, "apps.construct", rep, -1);
      ctx = std::make_unique<opv::LocalCtx>(cfg);
      ctx->set_renumber(true);
      app = std::make_unique<App>(*ctx, m);
    }
    construct_s.push_back(t.seconds());
    {
      Tracer::Scope span(tr, "core.warmup_step", rep, -1);
      app->run(1, 0);
    }
    setup_s.push_back(t.seconds());
    setup_cpu_s.push_back(process_cpu_seconds() - c0);
    warmup_s.push_back(setup_s.back() - construct_s.back());
  }
  out.layer.set("core.plan_s", "s", registry_plan_seconds());

  // ---- settle (untimed); the head check window ends inside it ---------------
  const int settle = std::max(settle_steps(kNominalStepSeconds, opt.tiny), kCheckSteps);
  opv::aligned_vector<double> head_q;
  double rss = 0.0;
  {
    Tracer::Scope span(tr, "settle", -1, -1);
    const opv::WallTimer t;
    for (int i = 0; i < settle; ++i) {
      if (i == kCheckSteps - 1) {
        // Peak RSS is read before any check data is captured: the program
        // itself never holds it, and steps allocate nothing.
        rss = peak_rss_mib();
        head_q = app->fetch_q();  // after the warm-up + (kCheckSteps-1) steps
      }
      app->run(1, 0);
    }
    out.layer.set("core.settle_s", "s", t.seconds(), settle);
  }

  // ---- timed steps ----------------------------------------------------------
  opv::StatsRegistry::instance().clear();
  std::vector<double> step_ms(static_cast<std::size_t>(steps));
  std::vector<double> traced_ms, untraced_ms;
  opv::Checkpoint tail;
  double timed = 0.0, timed_cpu = 0.0;
  for (int i = 0; i < steps; ++i) {
    // Captured between steps, outside every step's timer.
    if (i == steps - kCheckSteps) ctx->snapshot(tail);
    const bool traced = tr != nullptr && i % 2 == 0;
    const double c0 = process_cpu_seconds();
    const opv::WallTimer t;
    {
      Tracer::Scope span(traced ? tr : nullptr, "step", i, -1);
      app->run(1, 0);
    }
    const double s = t.seconds();
    timed_cpu += process_cpu_seconds() - c0;
    timed += s;
    step_ms[static_cast<std::size_t>(i)] = 1e3 * s;
    (traced ? traced_ms : untraced_ms).push_back(1e3 * s);
  }
  const opv::aligned_vector<double> final_q = app->fetch_q();
  // Plan counters cover the last set-up, the settle steps and the timed run.
  const opv::PlanCache::Counters plans_after = opv::PlanCache::instance().counters();
  app.reset();
  ctx.reset();

  // ---- metrics ----------------------------------------------------------------
  out.e2e.set("setup_s", "s", median(setup_cpu_s), static_cast<std::int64_t>(setup_cpu_s.size()));
  out.notes.push_back(samples_note("setup cpu", setup_cpu_s));
  out.notes.push_back(samples_note("setup wall", setup_s));
  add_step_metrics(out.e2e, step_ms);
  out.e2e.set("cell_steps_per_s", "cell_steps/s",
              static_cast<double>(m.ncells) * steps / timed, steps);
  out.e2e.set("cpu_ms_per_step", "ms", 1e3 * timed_cpu / steps, steps);
  out.e2e.set("peak_rss_mb", "MiB", rss);

  out.layer.set("apps.construct_s", "s", median(construct_s),
                static_cast<std::int64_t>(construct_s.size()));
  out.layer.set("core.warmup_step_s", "s", median(warmup_s),
                static_cast<std::int64_t>(warmup_s.size()));
  add_plan_metrics(out.layer, plans_before, plans_after);
  if (tr != nullptr) {
    const double triad = [&] {
      Tracer::Scope span(tr, "perf.triad", -1, -1);
      return triad_gbs(opt.threads, opt.tiny);
    }();
    out.layer.set("perf.triad_gbs", "GB/s", triad);
    add_loop_metrics(out.layer, timed, steps, triad, sizeof(double));
    out.layer.set("trace.overhead_frac", "ratio", overhead_frac(traced_ms, untraced_ms));
  }

  // ---- output check: Seq replays of the head and tail windows -----------
  {
    Tracer::Scope span(tr, "check.seq_reference", -1, -1);
    opv::LocalCtx sctx(opv::ExecConfig{.backend = opv::Backend::Seq});
    sctx.set_renumber(true);
    App ref(sctx, m);
    ref.run(kCheckSteps, 0);
    const double head = max_rel_divergence(head_q, ref.fetch_q());
    sctx.restore(tail);
    ref.run(kCheckSteps, 0);
    const double fin = max_rel_divergence(final_q, ref.fetch_q());
    out.attempted = 1;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "check: q after %d steps vs Seq %.3e, final q vs Seq replay %.3e",
                  kCheckSteps, head, fin);
    out.notes.emplace_back(buf);
    if (!(head <= 1e-12) || !(fin <= 1e-12)) out.failures.emplace_back(buf);
  }
  return out;
}

}  // namespace perfbench
