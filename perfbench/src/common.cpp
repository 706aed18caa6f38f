#include <sys/resource.h>
#include <time.h>

#include <cstdio>
#include <string>

#include "common/rng.hpp"
#include "core/kernel_info.hpp"
#include "core/loop_stats.hpp"
#include "perf/probes.hpp"
#include "perf/table.hpp"
#include "workload.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + stream;
  opv::splitmix64(s);
  return opv::splitmix64(s);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

int settle_steps(double nominal_step_seconds, bool tiny) {
  return tiny ? 1 : static_cast<int>(std::ceil(kSettleSeconds / nominal_step_seconds));
}

std::string samples_note(const char* what, const std::vector<double>& seconds) {
  std::string out = std::string(what) + " samples (s):";
  for (const double s : seconds) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4f", s);
    out += buf;
  }
  return out;
}

void add_step_metrics(MetricSet& e2e, const std::vector<double>& step_ms) {
  const auto n = static_cast<std::int64_t>(step_ms.size());
  e2e.set("step_p50_ms", "ms", percentile(step_ms, 50.0), n);
  e2e.set("step_p90_ms", "ms", percentile(step_ms, 90.0), n);
}

void add_loop_metrics(MetricSet& layer, double step_wall_seconds, std::int64_t steps,
                      double triad, std::size_t value_bytes) {
  const auto& kernels = traced_kernels();
  const auto& kreg = opv::KernelRegistry::instance();
  double loop_seconds = 0.0;
  for (const auto& [name, rec] : opv::StatsRegistry::instance().all()) {
    if (name.ends_with("/halo")) continue;  // duplicates the loop's exchange time
    loop_seconds += rec.seconds + rec.exchange_seconds;
    if (std::find(kernels.begin(), kernels.end(), name) == kernels.end() || rec.calls == 0)
      continue;
    const std::string p = "core.loop." + name;
    layer.set(p + ".ms_per_call", "ms", 1e3 * rec.seconds / static_cast<double>(rec.calls),
              rec.calls);
    if (kreg.has(name) && rec.seconds > 0.0) {
      const double gbs = opv::perf::useful_gbs(kreg.get(name), value_bytes, rec);
      layer.set(p + ".gbs_computed", "GB/s", gbs, rec.calls);
      if (triad > 0.0) layer.set(p + ".roofline_frac", "ratio", gbs / triad, rec.calls);
    }
    if (step_wall_seconds > 0.0)
      layer.set(p + ".step_share", "ratio", rec.seconds / step_wall_seconds, rec.calls);
  }
  if (steps > 0)
    layer.set("core.host_ms_per_step", "ms",
              1e3 * (step_wall_seconds - loop_seconds) / static_cast<double>(steps), steps);
}

double registry_plan_seconds() {
  double s = 0.0;
  for (const auto& [name, rec] : opv::StatsRegistry::instance().all()) s += rec.plan_seconds;
  return s;
}

void add_plan_metrics(MetricSet& layer, const opv::PlanCache::Counters& before,
                      const opv::PlanCache::Counters& after) {
  const auto hits = static_cast<double>(after.hits - before.hits);
  const auto builds = static_cast<double>(after.misses - before.misses);
  layer.set("core.plan_builds", "count", builds);
  layer.set("core.plan_hits", "count", hits);
  layer.set("core.plan_hit_rate", "ratio", hits + builds > 0.0 ? hits / (hits + builds) : 0.0);
}

double triad_gbs(int threads, bool tiny) {
  const std::size_t n = tiny ? (std::size_t{1} << 20) : (std::size_t{1} << 25);
  return opv::perf::stream_bandwidth(n, 3, threads).triad_gbs;
}

double overhead_frac(const std::vector<double>& traced, const std::vector<double>& untraced) {
  const double u = median(untraced);
  return u > 0.0 ? median(traced) / u - 1.0 : 0.0;
}

}  // namespace perfbench
