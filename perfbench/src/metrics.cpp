#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_' ||
         c == '.' || c == '-';
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const char c0 = name.front();
  if (!((c0 >= 'a' && c0 <= 'z') || (c0 >= 'A' && c0 <= 'Z') || (c0 >= '0' && c0 <= '9')))
    return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(),
                     [](char c) { return name_char(c) || c == '/' || c == '%'; });
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const auto n = static_cast<std::int64_t>(samples.size());
  auto rank = static_cast<std::int64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::int64_t>(rank, 1, n);
  auto nth = samples.begin() + (rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

std::int64_t samples_beyond(std::int64_t n, double p) {
  if (n <= 0) return 0;
  const auto rank = static_cast<std::int64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return n - std::clamp<std::int64_t>(rank, 1, n);
}

void MetricSet::set(const std::string& name, const std::string& unit, double value,
                    std::int64_t samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = {name, unit, value, samples};
      return;
    }
  }
  metrics_.push_back({name, unit, value, samples});
}

const Metric* MetricSet::find(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

const std::vector<CatalogEntry>& end_to_end_catalog() {
  static const std::vector<CatalogEntry> c = {
      {"setup_s", "s"},
      {"cpu_ms_per_step", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return c;
}

const std::vector<std::string>& traced_kernels() {
  static const std::vector<std::string> k = {
      "res_calc",      "adt_calc",      "update",       "save_soln", "bres_calc",
      "t3d_grad_calc", "t3d_flux_calc", "t3d_update_u", "t3d_save_u",
  };
  return k;
}

const std::vector<CatalogEntry>& per_layer_catalog() {
  static const std::vector<CatalogEntry> c = [] {
    std::vector<CatalogEntry> v = {
        {"mesh.build_s", "s"},
        {"mesh.read_msh_s", "s"},
        {"mesh.to_tet_s", "s"},
        {"mesh.msh_mb_per_s", "MiB/s"},
        {"apps.construct_s", "s"},
        {"core.warmup_step_s", "s"},
        {"core.settle_s", "s"},
        {"core.plan_s", "s"},
        {"core.plan_builds", "count"},
        {"core.plan_hits", "count"},
        {"core.plan_hit_rate", "ratio"},
        {"core.host_ms_per_step", "ms"},
    };
    for (const std::string& k : traced_kernels()) {
      v.push_back({"core.loop." + k + ".ms_per_call", "ms"});
      v.push_back({"core.loop." + k + ".gbs_computed", "GB/s"});
      v.push_back({"core.loop." + k + ".roofline_frac", "ratio"});
      v.push_back({"core.loop." + k + ".step_share", "ratio"});
    }
    const std::vector<CatalogEntry> rest = {
        {"perf.triad_gbs", "GB/s"},
        {"dist.begin_ms_per_step", "ms"},
        {"dist.wait_ms_per_step", "ms"},
        {"dist.messages_per_step", "count/step"},
        {"dist.values_per_step", "values/step"},
        {"dist.exchange_s", "s"},
        {"dist.rank_imbalance", "ratio"},
        {"serve.add_instances_s", "s"},
        {"serve.step_ms_p50", "ms"},
        {"serve.step_ms_p90", "ms"},
        {"serve.queue_wait_ms_p50", "ms"},
        {"serve.queue_wait_ms_p90", "ms"},
        {"serve.occupancy", "ratio"},
        {"serve.checkpoint_ms_p50", "ms"},
        {"serve.checkpoints", "count"},
        {"serve.health_scan_ms_p50", "ms"},
        {"serve.restores", "count"},
        {"serve.retries", "count"},
        {"serve.backoff_s", "s"},
        {"trace.overhead_frac", "ratio"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return c;
}

MetricSet project(const MetricSet& m, const std::vector<CatalogEntry>& catalog) {
  MetricSet out;
  for (const CatalogEntry& e : catalog) {
    const Metric* got = m.find(e.name);
    out.set(e.name, e.unit, got ? got->value : 0.0, got ? got->samples : 0);
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string result_json(bool correct, std::int64_t attempted, std::int64_t failed,
                        const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    if (!first) out += ", ";
    first = false;
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
