// Metric arithmetic and result emission for the opvec benchmark: sample
// percentiles, the metric/unit naming contract, and the one-line JSON
// result the benchmark prints last.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Metric names: a letter or digit first, then at most 63 more of letters,
/// digits, '_', '.' and '-'.
bool valid_metric_name(std::string_view name);

/// Units: 1 to 16 of letters, digits, '_', '/', '%', '.' and '-'.
bool valid_unit(std::string_view unit);

/// Nearest-rank percentile (p in (0, 100]): the smallest sample with at
/// least p% of the samples at or below it. Empty input gives 0.
double percentile(std::vector<double> samples, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples:
/// n - ceil(p * n / 100). The p90 of 100 samples has 10 beyond it.
std::int64_t samples_beyond(std::int64_t n, double p);

/// One reported number with its unit and the sample count it summarizes.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::int64_t samples = 1;
};

/// An ordered set of metrics; set() overwrites a name already present.
class MetricSet {
 public:
  void set(const std::string& name, const std::string& unit, double value,
           std::int64_t samples = 1);
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// The catalogs BENCHMARK.json lists, as (name, unit) pairs in emission
/// order: the end-to-end metrics the untraced run reports in its result
/// line, and every per-layer metric the traced run reports. The untraced
/// run prints more end-to-end metrics than its result line carries: tail
/// and whole-run timings move with host contention by more than any bound
/// the contract allows, so only medians, hazard-sweep's batch throughput,
/// set-up and memory are bounded.
struct CatalogEntry {
  std::string name;
  std::string unit;
};
const std::vector<CatalogEntry>& end_to_end_catalog();
const std::vector<CatalogEntry>& per_layer_catalog();

/// Per-kernel loop names whose core.loop.<kernel>.* metrics the traced run
/// reports (Airfoil's and Tet3D's time-loop kernels).
const std::vector<std::string>& traced_kernels();

/// Restrict `m` to the catalog: every catalog name in catalog order, with
/// a layer the workload does not reach reported as 0 (its work is none).
MetricSet project(const MetricSet& m, const std::vector<CatalogEntry>& catalog);

/// The benchmark's last output line:
/// {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}.
std::string result_json(bool correct, std::int64_t attempted, std::int64_t failed,
                        const MetricSet& metrics);

/// A double as JSON: every significant digit, non-finite values as null.
std::string json_number(double v);

/// A string as a JSON string literal.
std::string json_string(std::string_view s);

}  // namespace perfbench
