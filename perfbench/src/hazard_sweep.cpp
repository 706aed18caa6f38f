// hazard-sweep: 128 single-precision Volna scenarios on one shared 128 x 128
// periodic tri mesh, each a Simd instance with one thread, served by a
// serve::Ensemble of `threads` workers (batch_steps 4) under a HealthPolicy
// that checkpoints every 20 steps, scans health after every step and
// retries. One scenario in 16, picked by the seed, is wrapped in a
// serve::FaultyInstance that plants a NaN at a seeded step. All scenarios
// are submitted at t=0: a closed batch.
#include <cstring>
#include <memory>

#include "apps/volna/hazard.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/plan.hpp"
#include "mesh/generators.hpp"
#include "seams.hpp"
#include "serve/fault.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

constexpr int kScenarios = 128;
constexpr int kFaultGroup = 16;  ///< one faulted scenario per group of 16

/// One instance step on the reference host: sizes the steps per scenario
/// from --seconds (scenarios x steps x this / workers = --seconds).
constexpr double kNominalInstanceStepSeconds = 0.0045;

/// Volna's single-precision volume invariant bound (the SP test tolerance).
constexpr double kVolumeDriftBound = 1e-4;

using opv::serve::Checkpointable;

opv::volna::HazardInstance& hazard_of(opv::serve::Instance& in) {
  opv::serve::Instance* p = &static_cast<TracedInstance&>(in).inner();
  if (auto* f = dynamic_cast<opv::serve::FaultyInstance*>(p)) p = &f->inner();
  return dynamic_cast<opv::volna::HazardInstance&>(*p);
}

std::vector<double> pooled(const std::vector<ScenarioLog>& logs,
                           std::vector<double> ScenarioLog::*field, int parity = -1) {
  std::vector<double> out;
  for (std::size_t i = 0; i < logs.size(); ++i)
    if (parity < 0 || static_cast<int>(i % 2) == parity)
      out.insert(out.end(), (logs[i].*field).begin(), (logs[i].*field).end());
  return out;
}

}  // namespace

Outcome run_hazard_sweep(const Options& opt, Tracer& tracer) {
  Outcome out;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  const opv::idx_t n = opt.tiny ? 16 : 128;
  const int steps =
      opt.tiny ? 24
               : std::max(40, static_cast<int>(std::lround(opt.seconds * opt.threads /
                                                           (kScenarios * kNominalInstanceStepSeconds))));

  // ---- inputs: shared mesh, seed-jittered sweep, seeded fault plan ----------
  opv::mesh::UnstructuredMesh m;
  {
    Tracer::Scope span(tr, "mesh.generate", -1, -1);
    const opv::WallTimer t;
    m = opv::mesh::make_tri_periodic(n, n, 10.0, 10.0);
    out.layer.set("mesh.build_s", "s", t.seconds());
  }
  std::vector<opv::volna::Scenario> sweep = opv::volna::hazard_sweep(kScenarios);
  opv::Rng jitter(derive_seed(opt.seed, 2));
  for (auto& sc : sweep) {
    sc.amp *= jitter.uniform(0.95, 1.05);
    sc.width *= jitter.uniform(0.95, 1.05);
  }
  // Faults fire on a step of the timed run (step() calls count from the
  // first settle step).
  const int settle = settle_steps(kScenarios * kNominalInstanceStepSeconds / opt.threads, opt.tiny);
  opv::Rng faults(derive_seed(opt.seed, 3));
  std::vector<std::int64_t> fault_at(kScenarios, 0);  // 0 = not faulted
  for (int g = 0; g < kScenarios; g += kFaultGroup)
    fault_at[static_cast<std::size_t>(g + static_cast<int>(faults.next_below(kFaultGroup)))] =
        settle + 1 + static_cast<std::int64_t>(faults.next_below(static_cast<std::uint64_t>(steps)));

  opv::ExecConfig cfg;
  cfg.backend = opv::Backend::Simd;
  cfg.nthreads = 1;  // parallelism comes from the workers, not from one loop

  opv::serve::EnsembleOptions eopts;
  eopts.name = "hazard";
  eopts.workers = opt.threads;
  eopts.batch_steps = 4;
  eopts.health.checkpoint_every = 20;
  eopts.health.check_every = 1;
  eopts.health.retry.max_attempts = 3;
  eopts.health.retry.backoff_base_seconds = 0.001;

  // ---- instance factory: Volna -> (FaultyInstance) -> TracedInstance --------
  const opv::serve::InstanceFactory hazard = opv::volna::hazard_factory(m, sweep, cfg);
  std::vector<ScenarioLog> logs;
  std::atomic<int> run_span{-1};
  double construct_total = 0.0;
  const opv::serve::InstanceFactory factory =
      [&](int id) -> std::unique_ptr<opv::serve::Instance> {
    const opv::WallTimer t;
    std::unique_ptr<opv::serve::Instance> built = hazard(id);
    construct_total += t.seconds();
    std::unique_ptr<Checkpointable> inst(dynamic_cast<Checkpointable*>(built.release()));
    if (const std::int64_t at = fault_at[static_cast<std::size_t>(id)]; at > 0) {
      opv::serve::InstanceFaultPlan plan;
      plan.kind = opv::serve::InstanceFaultKind::Corrupt;
      plan.at_step = at;
      plan.dat = "values";
      inst = std::make_unique<opv::serve::FaultyInstance>(std::move(inst), plan);
    }
    Tracer* spans = tr != nullptr && id % 2 == 0 ? tr : nullptr;  // even ids traced
    return std::make_unique<TracedInstance>(std::move(inst), id, tracer, spans, &run_span,
                                            logs[static_cast<std::size_t>(id)]);
  };

  // ---- set-up (add_instances), repeated; the last one is measured -----------
  std::unique_ptr<opv::serve::Ensemble> ens;
  std::vector<double> setup_s, setup_cpu_s;
  opv::PlanCache::Counters before{};
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ens.reset();
    opv::PlanCache::instance().clear();
    opv::StatsRegistry::instance().clear();
    logs.assign(kScenarios, ScenarioLog{});
    construct_total = 0.0;
    ens = std::make_unique<opv::serve::Ensemble>(eopts);
    before = opv::PlanCache::instance().counters();
    const double c0 = process_cpu_seconds();
    const opv::WallTimer t;
    {
      Tracer::Scope span(tr, "serve.add_instances", rep, -1);
      ens->add_instances(kScenarios, factory);
    }
    setup_s.push_back(t.seconds());
    setup_cpu_s.push_back(process_cpu_seconds() - c0);
  }

  // ---- settle (untimed), then the timed run --------------------------------
  {
    Tracer::Scope span(tr, "settle", -1, -1);
    const opv::WallTimer t;
    ens->run(settle);
    out.layer.set("core.settle_s", "s", t.seconds(), settle);
  }
  // A scenario's first step pays its plan lookup: hazard-sweep's warm-up.
  std::vector<double> first_step_s;
  for (ScenarioLog& lg : logs) {
    if (!lg.step_ms.empty()) first_step_s.push_back(lg.step_ms.front() / 1e3);
    lg = ScenarioLog{};
  }
  out.layer.set("core.warmup_step_s", "s", median(first_step_s),
                static_cast<std::int64_t>(first_step_s.size()));
  // Plans are built during set-up and settle; the loop metrics cover the
  // timed run only.
  out.layer.set("core.plan_s", "s", registry_plan_seconds());
  opv::StatsRegistry::instance().clear();

  const int run_id = tr != nullptr ? tr->open("serve.run", -1, -1) : -1;
  run_span = run_id;
  const double t0 = tracer.now();
  const double run_cpu0 = process_cpu_seconds();
  const opv::serve::EnsembleReport rep = ens->run(steps);
  const double run_cpu = process_cpu_seconds() - run_cpu0;
  if (tr != nullptr) tr->close(run_id);
  const double rss = peak_rss_mib();
  const auto after = opv::PlanCache::instance().counters();

  std::vector<double> done_s;
  for (int id = 0; id < kScenarios; ++id) {
    const ScenarioLog& lg = logs[static_cast<std::size_t>(id)];
    // A retired scenario misses every latency limit.
    done_s.push_back(ens->error_of(id).empty() && lg.last_end >= 0.0 ? lg.last_end - t0 : INFINITY);
  }
  const std::vector<double> step_ms = pooled(logs, &ScenarioLog::step_ms);

  out.e2e.set("setup_s", "s", median(setup_cpu_s), static_cast<std::int64_t>(setup_cpu_s.size()));
  out.notes.push_back(samples_note("setup cpu", setup_cpu_s));
  out.notes.push_back(samples_note("setup wall", setup_s));
  // Every scenario step the batch asked for; checkpoints, health scans,
  // restores and replays add to the CPU time, not to the count.
  const std::int64_t asked = std::int64_t{kScenarios} * steps;
  out.e2e.set("cpu_ms_per_step", "ms", 1e3 * run_cpu / static_cast<double>(asked), asked);
  out.e2e.set("scenarios_per_s", "1/s", rep.instances_per_sec(), kScenarios);
  out.e2e.set("scenario_p50_s", "s", percentile(done_s, 50.0), kScenarios);
  out.e2e.set("scenario_p90_s", "s", percentile(done_s, 90.0), kScenarios);
  out.e2e.set("peak_rss_mb", "MiB", rss);

  const std::vector<double> gap_ms = pooled(logs, &ScenarioLog::gap_ms);
  const std::vector<double> chk_ms = pooled(logs, &ScenarioLog::checkpoint_ms);
  const std::vector<double> health_ms = pooled(logs, &ScenarioLog::health_ms);
  const auto nsteps = static_cast<std::int64_t>(step_ms.size());
  out.layer.set("apps.construct_s", "s", construct_total, kScenarios);
  add_plan_metrics(out.layer, before, after);
  double stepping = 0.0;
  for (const double ms : step_ms) stepping += ms / 1e3;
  add_loop_metrics(out.layer, stepping, nsteps, 0.0, sizeof(float));
  out.layer.set("serve.add_instances_s", "s", median(setup_s),
                static_cast<std::int64_t>(setup_s.size()));
  out.layer.set("serve.step_ms_p50", "ms", percentile(step_ms, 50.0), nsteps);
  out.layer.set("serve.step_ms_p90", "ms", percentile(step_ms, 90.0), nsteps);
  out.layer.set("serve.queue_wait_ms_p50", "ms", percentile(gap_ms, 50.0),
                static_cast<std::int64_t>(gap_ms.size()));
  out.layer.set("serve.queue_wait_ms_p90", "ms", percentile(gap_ms, 90.0),
                static_cast<std::int64_t>(gap_ms.size()));
  out.layer.set("serve.occupancy", "ratio", rep.occupancy());
  out.layer.set("serve.checkpoint_ms_p50", "ms", percentile(chk_ms, 50.0),
                static_cast<std::int64_t>(chk_ms.size()));
  out.layer.set("serve.checkpoints", "count", static_cast<double>(rep.checkpoints));
  out.layer.set("serve.health_scan_ms_p50", "ms", percentile(health_ms, 50.0),
                static_cast<std::int64_t>(health_ms.size()));
  out.layer.set("serve.restores", "count", static_cast<double>(rep.restores));
  out.layer.set("serve.retries", "count", static_cast<double>(rep.retries));
  out.layer.set("serve.backoff_s", "s", rep.backoff_seconds);
  out.layer.set("trace.overhead_frac", "ratio",
                overhead_frac(pooled(logs, &ScenarioLog::step_ms, 0),
                              pooled(logs, &ScenarioLog::step_ms, 1)));

  // ---- output checks -----------------------------------------------------------
  {
    Tracer::Scope span(tr, "check.scenarios", -1, -1);
    out.attempted = kScenarios;
    int faulted = 0, recovered = 0;
    for (int id = 0; id < kScenarios; ++id) {
      const std::string& err = ens->error_of(id);
      const std::string tag = "scenario " + std::to_string(id) + ": ";
      if (!err.empty()) {
        out.failures.push_back(tag + "retired: " + err);
        continue;
      }
      opv::volna::HazardInstance& inst = hazard_of(ens->instance(id));
      const opv::aligned_vector<float> state = inst.state();
      bool finite = true;
      for (const float v : state) finite = finite && std::isfinite(v);
      const double drift = std::abs(inst.volume() - inst.initial_volume()) / inst.initial_volume();
      if (!finite) {
        out.failures.push_back(tag + "state is not finite");
        continue;
      }
      if (!(drift <= kVolumeDriftBound)) {
        out.failures.push_back(tag + "volume drift " + std::to_string(drift) + " exceeds bound");
        continue;
      }
      if (fault_at[static_cast<std::size_t>(id)] == 0) continue;
      ++faulted;
      if (logs[static_cast<std::size_t>(id)].restores == 0) {
        out.failures.push_back(tag + "injected fault finished without a restore");
        continue;
      }
      ++recovered;
      // A recovered scenario must be bitwise what a solo unfaulted run gives.
      opv::volna::HazardInstance solo(m, sweep[static_cast<std::size_t>(id)], cfg);
      for (int s = 0; s < settle + steps; ++s) solo.step();
      const opv::aligned_vector<float> want = solo.state();
      if (want.size() != state.size() ||
          std::memcmp(want.data(), state.data(), state.size() * sizeof(float)) != 0)
        out.failures.push_back(tag + "recovered state differs bitwise from a solo unfaulted run");
    }
    out.notes.push_back("check: " + std::to_string(kScenarios) + " scenarios x " +
                        std::to_string(settle + steps) + " steps, " + std::to_string(faulted) +
                        " faulted, " + std::to_string(recovered) + " recovered, " +
                        std::to_string(rep.failed) + " retired");
  }
  ens.reset();
  if (tr != nullptr) {
    Tracer::Scope span(tr, "perf.triad", -1, -1);
    out.layer.set("perf.triad_gbs", "GB/s", triad_gbs(opt.threads, opt.tiny));
  }
  return out;
}

}  // namespace perfbench
