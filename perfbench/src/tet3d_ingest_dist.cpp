// tet3d-ingest-dist: a 40^3 Kuhn-split tet box (384k cells) written as an
// ASCII MSH v4.1 file with its element order permuted by the seed, imported
// with read_msh + to_tet, then run as double-precision Tet3D on a
// dist::DistCtx of `threads` ranks (one thread each), renumbering on, the
// default Overlap exchange mode and the default exchanger, Simd backend.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>

#include "apps/tet3d/tet3d.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/context.hpp"
#include "core/plan.hpp"
#include "dist/context.hpp"
#include "mesh/generators.hpp"
#include "mesh/io.hpp"
#include "seams.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

/// Step time on the reference host (4 ranks): sizes the timed work from
/// --seconds, never below the 100 samples step_p90_ms needs.
constexpr double kNominalStepSeconds = 0.02;

using App = opv::tet3d::Tet3D<double, opv::dist::DistCtx>;
using SeqApp = opv::tet3d::Tet3D<double, opv::LocalCtx>;

/// The tet box, before its tets are reordered.
opv::mesh::GmshMesh tet_box(opv::idx_t n) {
  return opv::mesh::from_tet(opv::mesh::make_tet_box(n, n, n));
}

/// The seeded tet order of the input file: position e holds box tet order[e].
std::vector<opv::idx_t> tet_order(std::size_t count, std::uint64_t seed) {
  std::vector<opv::idx_t> order(count);
  std::iota(order.begin(), order.end(), 0);
  opv::Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.next_below(i))]);
  return order;
}

/// The input file: the tet box with its tets in the seeded order.
void write_input(opv::idx_t n, std::uint64_t seed, const std::string& path) {
  opv::mesh::GmshMesh g = tet_box(n);
  auto& tets = g.tets;
  const std::vector<opv::idx_t> order = tet_order(static_cast<std::size_t>(tets.count), seed);
  opv::aligned_vector<opv::idx_t> nodes(tets.nodes.size()), phys(tets.phys.size());
  for (std::size_t e = 0; e < order.size(); ++e) {
    const auto src = static_cast<std::size_t>(order[e]);
    for (int k = 0; k < 4; ++k) nodes[4 * e + k] = tets.nodes[4 * src + k];
    phys[e] = tets.phys[src];
  }
  tets.nodes = std::move(nodes);
  tets.phys = std::move(phys);
  opv::mesh::write_msh(g, path, 4);
}

/// Final u (one value per tet, in box order) of a Seq run of `steps` steps
/// on one LocalCtx over the tet box as generated: no file, no partitioning,
/// no halo exchange, no renumbering, and the generator's own tet order. So
/// a defect in ingest or in the dist layer cannot cancel out. It does not
/// depend on the seed, so it is cached in `cache` and shared by every seed;
/// a cache file older than this program, or of another length, is recomputed.
opv::aligned_vector<double> seq_reference(opv::idx_t n, int steps, std::size_t values,
                                          const std::string& cache) {
  namespace fs = std::filesystem;
  opv::aligned_vector<double> u;
  std::error_code ec;
  const auto built = fs::last_write_time("/proc/self/exe", ec);  // min() if unknown
  const auto cached = fs::last_write_time(cache, ec);
  if (std::ifstream in(cache, std::ios::binary); in && !ec && cached >= built) {
    u.resize(values);
    in.read(reinterpret_cast<char*>(u.data()), static_cast<std::streamsize>(values * sizeof(double)));
    if (in && in.peek() == std::ifstream::traits_type::eof()) return u;
  }
  opv::LocalCtx ctx(opv::ExecConfig{.backend = opv::Backend::Seq});
  ctx.set_renumber(false);
  SeqApp ref(ctx, opv::mesh::to_tet(tet_box(n)));
  ref.run(steps, 0);
  u = ref.fetch_u();
  const std::string tmp = cache + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out.write(reinterpret_cast<const char*>(u.data()),
              static_cast<std::streamsize>(u.size() * sizeof(double)));
  }
  fs::rename(tmp, cache);
  return u;
}

}  // namespace

Outcome run_tet3d_ingest_dist(const Options& opt, Tracer& tracer) {
  Outcome out;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  const opv::idx_t n = opt.tiny ? 6 : 40;
  const int steps =
      opt.tiny ? 10 : std::max(100, static_cast<int>(std::lround(opt.seconds / kNominalStepSeconds)));

  // ---- input file, written before anything is timed ---------------------------
  const std::string path =
      opt.out_dir + "/tet3d-" + std::to_string(opt.seed) + (opt.tiny ? "-tiny" : "") + ".msh";
  const std::uint64_t input_seed = derive_seed(opt.seed, 4);
  write_input(n, input_seed, path);
  const double file_mib = static_cast<double>(std::filesystem::file_size(path)) / (1024.0 * 1024.0);

  // ---- set-up (ingest + construct + warm-up), repeated ---------------------
  opv::ExecConfig cfg;
  cfg.backend = opv::Backend::Simd;
  cfg.nthreads = 1;  // one thread per rank
  opv::mesh::TetMesh tm;
  std::unique_ptr<opv::dist::DistCtx> ctx;
  std::unique_ptr<App> app;
  CountingExchanger* counter = nullptr;
  std::vector<double> setup_s, setup_cpu_s, read_s, convert_s, construct_s, warmup_s;
  opv::PlanCache::Counters plans_before{};
  for (int rep = 0; rep < kSetupReps; ++rep) {
    app.reset();
    ctx.reset();
    opv::PlanCache::instance().clear();
    opv::StatsRegistry::instance().clear();
    plans_before = opv::PlanCache::instance().counters();
    const double c0 = process_cpu_seconds();
    const opv::WallTimer t;
    opv::mesh::GmshMesh g;
    {
      Tracer::Scope span(tr, "mesh.read_msh", rep, -1);
      g = opv::mesh::read_msh(path);
    }
    read_s.push_back(t.seconds());
    {
      Tracer::Scope span(tr, "mesh.to_tet", rep, -1);
      tm = opv::mesh::to_tet(g);
    }
    convert_s.push_back(t.seconds() - read_s.back());
    {
      Tracer::Scope span(tr, "apps.construct", rep, -1);
      ctx = std::make_unique<opv::dist::DistCtx>(opt.threads, cfg);
      ctx->set_renumber(true);
      if (tr != nullptr) {
        auto wrapped = std::make_unique<CountingExchanger>(
            std::make_unique<opv::dist::MemcpyExchanger>(), tr);
        counter = wrapped.get();
        ctx->set_exchanger(std::move(wrapped));
      }
      app = std::make_unique<App>(*ctx, tm);
    }
    construct_s.push_back(t.seconds() - read_s.back() - convert_s.back());
    {
      Tracer::Scope span(tr, "core.warmup_step", rep, -1);
      app->run(1, 0);
    }
    setup_s.push_back(t.seconds());
    setup_cpu_s.push_back(process_cpu_seconds() - c0);
    warmup_s.push_back(setup_s.back() - read_s.back() - convert_s.back() - construct_s.back());
  }
  out.layer.set("core.plan_s", "s", registry_plan_seconds());

  // ---- settle (untimed) --------------------------------------------------------
  const int settle = settle_steps(kNominalStepSeconds, opt.tiny);
  {
    Tracer::Scope span(tr, "settle", -1, -1);
    const opv::WallTimer t;
    app->run(settle, 0);
    out.layer.set("core.settle_s", "s", t.seconds(), settle);
  }

  // ---- timed steps --------------------------------------------------------------
  opv::StatsRegistry::instance().clear();
  if (counter != nullptr) counter->reset();
  std::vector<double> step_ms(static_cast<std::size_t>(steps));
  std::vector<double> traced_ms, untraced_ms;
  double timed = 0.0, timed_cpu = 0.0;
  for (int i = 0; i < steps; ++i) {
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
  const double rss = peak_rss_mib();
  // Plan counters cover the last set-up, the settle steps and the timed run.
  const opv::PlanCache::Counters plans_after = opv::PlanCache::instance().counters();
  const opv::aligned_vector<double> final_u = app->fetch_u();

  // ---- metrics --------------------------------------------------------------------
  out.e2e.set("setup_s", "s", median(setup_cpu_s), static_cast<std::int64_t>(setup_cpu_s.size()));
  out.notes.push_back(samples_note("setup cpu", setup_cpu_s));
  out.notes.push_back(samples_note("setup wall", setup_s));
  add_step_metrics(out.e2e, step_ms);
  out.e2e.set("cell_steps_per_s", "cell_steps/s",
              static_cast<double>(tm.ncells) * steps / timed, steps);
  out.e2e.set("cpu_ms_per_step", "ms", 1e3 * timed_cpu / steps, steps);
  out.e2e.set("peak_rss_mb", "MiB", rss);

  const auto reps = static_cast<std::int64_t>(setup_s.size());
  std::vector<double> ingest_s(read_s.size());
  for (std::size_t i = 0; i < read_s.size(); ++i) ingest_s[i] = read_s[i] + convert_s[i];
  out.layer.set("mesh.build_s", "s", median(ingest_s), reps);
  out.layer.set("mesh.read_msh_s", "s", median(read_s), reps);
  out.layer.set("mesh.to_tet_s", "s", median(convert_s), reps);
  out.layer.set("mesh.msh_mb_per_s", "MiB/s", file_mib / median(read_s), reps);
  out.layer.set("apps.construct_s", "s", median(construct_s), reps);
  out.layer.set("core.warmup_step_s", "s", median(warmup_s), reps);
  add_plan_metrics(out.layer, plans_before, plans_after);
  if (tr != nullptr) {
    double exch = 0.0, rank_max = 0.0, rank_mean = 0.0;
    for (const auto& [name, rec] : opv::StatsRegistry::instance().all()) {
      if (name.ends_with("/halo")) continue;
      exch += rec.exchange_seconds;
      rank_max += rec.rank_max_seconds;
      rank_mean += rec.rank_mean_seconds;
    }
    const ExchangeTally& x = counter->tally();
    out.layer.set("dist.begin_ms_per_step", "ms", 1e3 * x.begin_seconds / steps, steps);
    out.layer.set("dist.wait_ms_per_step", "ms", 1e3 * x.wait_seconds / steps, steps);
    out.layer.set("dist.messages_per_step", "count/step", static_cast<double>(x.messages) / steps,
                  steps);
    out.layer.set("dist.values_per_step", "values/step", static_cast<double>(x.values) / steps,
                  steps);
    out.layer.set("dist.exchange_s", "s", exch, steps);
    out.layer.set("dist.rank_imbalance", "ratio", rank_mean > 0.0 ? rank_max / rank_mean : 0.0);
    out.layer.set("trace.overhead_frac", "ratio", overhead_frac(traced_ms, untraced_ms));
  }
  app.reset();
  ctx.reset();
  if (tr != nullptr) {
    const double triad = [&] {
      Tracer::Scope span(tr, "perf.triad", -1, -1);
      return triad_gbs(opt.threads, opt.tiny);
    }();
    out.layer.set("perf.triad_gbs", "GB/s", triad);
    add_loop_metrics(out.layer, timed, steps, triad, sizeof(double));
  }

  // ---- output check: a LocalCtx Seq reference on the same tet box ----------
  {
    Tracer::Scope span(tr, "check.seq_reference", -1, -1);
    const int total = 1 + settle + steps;  // warm-up, settle and timed steps
    const std::string cache = opt.out_dir + "/tet3d-ref-n" + std::to_string(n) + "-steps" +
                              std::to_string(total) + ".bin";
    const opv::aligned_vector<double> ref = seq_reference(n, total, final_u.size(), cache);
    // The run's u is in file order: file tet e is box tet order[e].
    const std::vector<opv::idx_t> order = tet_order(ref.size(), input_seed);
    opv::aligned_vector<double> want(ref.size());
    for (std::size_t e = 0; e < order.size(); ++e)
      want[e] = ref[static_cast<std::size_t>(order[e])];
    const double div = max_rel_divergence(final_u, want);
    out.attempted = 1;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "check: final u after %d steps vs LocalCtx Seq reference %.3e",
                  total, div);
    out.notes.emplace_back(buf);
    if (!(div <= 1e-12)) out.failures.emplace_back(buf);
  }
  std::filesystem::remove(path);
  return out;
}

}  // namespace perfbench
