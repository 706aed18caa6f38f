// The three benchmark workloads and the helpers they share. Each workload
// builds its inputs from the seed, sets up several times (reporting the
// median set-up), measures a fixed amount of work sized from --seconds,
// then checks its outputs outside the timed window.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "core/plan.hpp"
#include "metrics.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< nominal length of the timed window
  bool trace = false;     ///< traced run: per-layer metrics instead of end-to-end
  int threads = 4;        ///< threads / workers / ranks: min(4, nproc)
  bool tiny = false;      ///< smoke-test sizes, for the self-tests
  std::string out_dir;    ///< scratch for generated inputs and trace files
};

struct Outcome {
  std::int64_t attempted = 0;         ///< operations whose output was checked
  std::vector<std::string> failures;  ///< one line per failed check
  MetricSet e2e;                      ///< end-to-end metrics
  MetricSet layer;                    ///< per-layer metrics (traced run)
  std::vector<std::string> notes;     ///< extra summary lines
};

Outcome run_airfoil_large(const Options& opt, Tracer& tracer);
Outcome run_hazard_sweep(const Options& opt, Tracer& tracer);
Outcome run_tet3d_ingest_dist(const Options& opt, Tracer& tracer);

// ---- shared helpers ---------------------------------------------------------

/// Set-ups per run; setup_s is the median of their CPU times.
constexpr int kSetupReps = 3;

/// Untimed steps between set-up and the timed window. On the reference host
/// the first second or so of stepping after a set-up runs up to 4x slower
/// and then settles; timing starts once it has.
constexpr double kSettleSeconds = 1.5;

/// Settle steps for a workload with the given nominal step time.
int settle_steps(double nominal_step_seconds, bool tiny);

/// The set-up samples of a run, as one summary line.
std::string samples_note(const char* what, const std::vector<double>& seconds);

/// An independent sub-seed for one use of the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Peak resident set of this process so far (getrusage ru_maxrss), MiB.
double peak_rss_mib();

/// CPU time of this process so far, all threads (CLOCK_PROCESS_CPUTIME_ID).
/// Time the hypervisor steals from a virtual CPU is not counted.
double process_cpu_seconds();

/// max|a - b| / max|a| — the field-norm gate the repository's ablation
/// benches apply against a Seq reference (1.0 on a size mismatch).
template <class T>
double max_rel_divergence(const opv::aligned_vector<T>& a, const opv::aligned_vector<T>& b) {
  if (a.size() != b.size()) return 1.0;
  double norm = 0.0, diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x = static_cast<double>(a[i]), y = static_cast<double>(b[i]);
    norm = std::max(norm, std::abs(x));
    diff = std::max(diff, std::abs(x - y));
  }
  return norm > 0.0 ? diff / norm : (diff > 0.0 ? 1.0 : 0.0);
}

/// Median of a sample vector (nearest rank).
double median(const std::vector<double>& v);

/// step_p50_ms / step_p90_ms from per-step wall times (ms).
void add_step_metrics(MetricSet& e2e, const std::vector<double>& step_ms);

/// core.loop.<kernel>.* and core.host_ms_per_step from the StatsRegistry
/// rows recorded since it was last cleared. Byte counts are "computed":
/// KernelInfo values moved x value size x elements, not measured traffic.
void add_loop_metrics(MetricSet& layer, double step_wall_seconds, std::int64_t steps,
                      double triad_gbs, std::size_t value_bytes);

/// Sum of LoopRecord::plan_seconds over every registry row.
double registry_plan_seconds();

/// core.plan_builds, core.plan_hits and core.plan_hit_rate from the
/// PlanCache::counters() difference `after - before`.
void add_plan_metrics(MetricSet& layer, const opv::PlanCache::Counters& before,
                      const opv::PlanCache::Counters& after);

/// perf.triad_gbs: STREAM triad over three 256 MiB arrays (768 MiB in all,
/// larger than this host's LLC), `threads` OpenMP threads.
double triad_gbs(int threads, bool tiny);

/// trace.overhead_frac: median traced sample over median untraced sample,
/// minus one (positive = tracing slowed the headline down).
double overhead_frac(const std::vector<double>& traced, const std::vector<double>& untraced);

}  // namespace perfbench
