// opvbench: runs one benchmark workload in this process and prints its
// metrics, then one JSON result line last.
//
//   opvbench --workload=<airfoil-large|hazard-sweep|tet3d-ingest-dist>
//            --seed=N --seconds=S --trace=0|1 [--threads=T] [--out-dir=DIR]
//
// --trace=0 reports the end-to-end metrics; --trace=1 reports the
// per-layer metrics and writes the recorded spans to
// DIR/trace-<workload>-<seed>.json. Exit status: 0 when every output check
// passed, 1 when one failed, 2 on a usage or run error.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "common/cli.hpp"
#include "workload.hpp"

namespace {

using perfbench::Outcome;

void print_metrics(const perfbench::MetricSet& set) {
  for (const perfbench::Metric& m : set.all()) {
    std::printf("  %-40s %16.6g %-12s (n=%lld", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<long long>(m.samples));
    if (m.name.find("p90") != std::string::npos)
      std::printf(", %lld beyond", static_cast<long long>(perfbench::samples_beyond(m.samples, 90.0)));
    std::printf(")\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    const opv::Cli cli(argc, argv);
    opt.workload = cli.get("workload", "");
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    opt.seconds = cli.get_double("seconds", 10.0);
    opt.trace = cli.get_int("trace", 0) != 0;
    opt.threads = static_cast<int>(cli.get_int("threads", 4));
    opt.out_dir = cli.get("out-dir", ".");
    const auto unknown = cli.unknown({"workload", "seed", "seconds", "trace", "threads", "out-dir"});
    if (!unknown.empty()) {
      std::fprintf(stderr, "opvbench: unknown option --%s\n", unknown.front().c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "opvbench: %s\n", e.what());
    return 2;
  }
  if (opt.threads < 1 || !(opt.seconds > 0.0)) {
    std::fprintf(stderr, "opvbench: --threads and --seconds must be positive\n");
    return 2;
  }

  Outcome (*run)(const perfbench::Options&, perfbench::Tracer&) = nullptr;
  if (opt.workload == "airfoil-large") run = perfbench::run_airfoil_large;
  else if (opt.workload == "hazard-sweep") run = perfbench::run_hazard_sweep;
  else if (opt.workload == "tet3d-ingest-dist") run = perfbench::run_tet3d_ingest_dist;
  if (run == nullptr) {
    std::fprintf(stderr,
                 "opvbench: unknown --workload '%s' (airfoil-large, hazard-sweep, "
                 "tet3d-ingest-dist)\n",
                 opt.workload.c_str());
    return 2;
  }

  std::printf("opvbench: workload=%s seed=%llu seconds=%g trace=%d threads=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, opt.threads);
  std::fflush(stdout);

  perfbench::Tracer tracer(opt.trace);
  Outcome out;
  try {
    std::filesystem::create_directories(opt.out_dir);
    out = run(opt, tracer);
    if (opt.trace) {
      const std::string path = opt.out_dir + "/trace-" + opt.workload + "-" +
                               std::to_string(opt.seed) + ".json";
      tracer.write_json(path);
      std::printf("trace: %zu spans written to %s\n", tracer.spans().size(), path.c_str());
      std::printf("self time by span (s):\n");
      for (const auto& [name, secs] : perfbench::self_time_by_name(tracer.spans()))
        std::printf("  %-40s %12.6f\n", name.c_str(), secs);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "opvbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 2;
  }

  const auto failed = static_cast<std::int64_t>(out.failures.size());
  const bool correct = failed == 0;
  std::printf("end-to-end metrics (the result line carries");
  for (const perfbench::CatalogEntry& e : perfbench::end_to_end_catalog())
    std::printf(" %s", e.name.c_str());
  std::printf("):\n");
  print_metrics(out.e2e);
  std::printf("  %-40s %16.6g %-12s (%lld of %lld)\n", "failed_frac",
              static_cast<double>(failed) / static_cast<double>(out.attempted), "ratio",
              static_cast<long long>(failed), static_cast<long long>(out.attempted));
  if (opt.trace) {
    std::printf("per-layer metrics:\n");
    print_metrics(out.layer);
  }
  for (const std::string& n : out.notes) std::printf("%s\n", n.c_str());
  for (const std::string& f : out.failures) std::printf("FAILED %s\n", f.c_str());

  const auto& catalog =
      opt.trace ? perfbench::per_layer_catalog() : perfbench::end_to_end_catalog();
  const perfbench::MetricSet reported = perfbench::project(opt.trace ? out.layer : out.e2e, catalog);
  std::printf("%s\n", perfbench::result_json(correct, out.attempted, failed, reported).c_str());
  return correct ? 0 : 1;
}
