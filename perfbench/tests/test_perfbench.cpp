// Tests of the benchmark itself: the metric naming contract and its match
// with BENCHMARK.json, percentile and sample-count arithmetic, span
// self-time arithmetic, and a tiny-size smoke run of every workload with
// its output checks on.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "metrics.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

/// The "name" values listed in one top-level array of BENCHMARK.json.
std::vector<std::string> manifest_names(const std::string& section) {
  std::ifstream in(PERFBENCH_MANIFEST);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const auto begin = text.find("\"" + section + "\"");
  if (begin == std::string::npos) return {};
  const auto end = text.find(']', begin);
  std::vector<std::string> out;
  const std::string key = "\"name\": \"";
  for (auto p = text.find(key, begin); p != std::string::npos && p < end;
       p = text.find(key, p + 1)) {
    const auto q = p + key.size();
    out.push_back(text.substr(q, text.find('"', q) - q));
  }
  return out;
}

std::vector<std::string> catalog_names(const std::vector<CatalogEntry>& c) {
  std::vector<std::string> out;
  for (const CatalogEntry& e : c) out.push_back(e.name);
  return out;
}

TEST(MetricNames, ContractCharacters) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("core.loop.res_calc.ms_per_call"));
  EXPECT_TRUE(valid_metric_name("9lives-ok"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/no"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_TRUE(valid_unit("cell_steps/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("cells*steps/s"));
  EXPECT_FALSE(valid_unit(std::string(17, 'm')));
}

TEST(MetricNames, CatalogsAreValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* cat : {&end_to_end_catalog(), &per_layer_catalog()}) {
    for (const CatalogEntry& e : *cat) {
      EXPECT_TRUE(valid_metric_name(e.name)) << e.name;
      EXPECT_TRUE(valid_unit(e.unit)) << e.name << " unit " << e.unit;
      EXPECT_TRUE(seen.insert(e.name).second) << "duplicate " << e.name;
    }
  }
  EXPECT_LE(per_layer_catalog().size(), 128u);
  EXPECT_LE(end_to_end_catalog().size(), 16u);
}

TEST(MetricNames, CatalogsMatchTheManifest) {
  EXPECT_EQ(manifest_names("end_to_end"), catalog_names(end_to_end_catalog()));
  EXPECT_EQ(manifest_names("per_layer"), catalog_names(per_layer_catalog()));
}

TEST(Percentiles, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 90.0), 90.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile({7.0}, 90.0), 7.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0, INFINITY}, 50.0), 2.0);
  EXPECT_TRUE(std::isinf(percentile({3.0, 1.0, 2.0, INFINITY}, 90.0)));
}

TEST(Percentiles, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 90.0), 10);  // step_p90_ms needs >= 100 samples
  EXPECT_EQ(samples_beyond(99, 90.0), 9);
  EXPECT_EQ(samples_beyond(128, 90.0), 12);  // hazard-sweep's 128 scenarios
  EXPECT_EQ(samples_beyond(128, 50.0), 64);
  EXPECT_EQ(samples_beyond(1, 90.0), 0);
  EXPECT_EQ(samples_beyond(0, 90.0), 0);
}

TEST(Results, JsonLine) {
  MetricSet m;
  m.set("setup_s", "s", 0.5, 3);
  m.set("peak_rss_mb", "MiB", INFINITY);
  m.set("setup_s", "s", 0.25, 3);  // overwrite keeps the first position
  EXPECT_EQ(result_json(true, 4, 0, m),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": "
            "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, "
            "\"peak_rss_mb\": {\"value\": null, \"unit\": \"MiB\"}}}");
  EXPECT_EQ(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
}

TEST(Results, ProjectFillsTheCatalog) {
  MetricSet m;
  m.set("cpu_ms_per_step", "ms", 12.5, 100);
  m.set("step_p50_ms", "ms", 10.0, 100);
  m.set("not_in_catalog", "s", 1.0);
  const MetricSet p = project(m, end_to_end_catalog());
  ASSERT_EQ(p.all().size(), end_to_end_catalog().size());
  EXPECT_EQ(p.all()[1].name, "cpu_ms_per_step");
  EXPECT_EQ(p.all()[1].value, 12.5);
  EXPECT_EQ(p.find("step_p50_ms"), nullptr) << "printed, not in the result line";
  EXPECT_EQ(p.find("setup_s")->value, 0.0);
  EXPECT_EQ(p.find("not_in_catalog"), nullptr);
}

TEST(SelfTime, ChildrenUnionClippedToParent) {
  std::vector<Span> s = {
      {"run", 0.0, 10.0, -1, -1},
      {"step", 1.0, 3.0, 0, 0},
      {"step", 2.0, 5.0, 0, 1},    // overlaps its sibling (parallel worker)
      {"step", 8.0, 12.0, 0, 2},   // runs past the parent: clipped at 10
      {"wait", 1.5, 2.0, 1, -1},
  };
  const std::vector<double> self = self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0 - 0.5);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
  const auto by_name = self_time_by_name(s);
  EXPECT_DOUBLE_EQ(by_name.at("step"), 1.5 + 3.0 + 4.0);
  EXPECT_DOUBLE_EQ(by_name.at("run"), 4.0);
}

TEST(Tracer, ScopesNestAndDisabledRecordsNothing) {
  Tracer off(false);
  {
    Tracer::Scope a(&off, "a", 0, -1);
    EXPECT_EQ(a.id(), -1);
  }
  EXPECT_TRUE(off.spans().empty());

  Tracer on(true);
  {
    Tracer::Scope orphan(&on, "child-without-parent");  // untraced request
    EXPECT_EQ(orphan.id(), -1);
  }
  {
    Tracer::Scope step(&on, "step", 7, -1);
    EXPECT_EQ(Tracer::current(), step.id());
    Tracer::Scope wait(&on, "dist.wait");
    EXPECT_EQ(Tracer::current(), wait.id());
  }
  EXPECT_EQ(Tracer::current(), -1);
  const std::vector<Span> spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].request, 7);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_LE(spans[1].end, spans[0].end);
}

// ---- tiny-size smoke runs with every output check on -------------------------

Options tiny(const std::string& workload, bool trace) {
  Options o;
  o.workload = workload;
  o.seed = 11;
  o.trace = trace;
  o.threads = 2;
  o.tiny = true;
  o.out_dir = (std::filesystem::temp_directory_path() / "perfbench_tests").string();
  std::filesystem::create_directories(o.out_dir);
  return o;
}

/// The end-to-end metrics of one simulation (airfoil, tet3d) and of a
/// batch of scenarios (hazard); failed_frac is printed from attempted/failed.
const std::vector<std::string> kStepMetrics = {"step_p50_ms", "step_p90_ms", "cell_steps_per_s"};
const std::vector<std::string> kScenarioMetrics = {"scenarios_per_s", "scenario_p50_s",
                                                   "scenario_p90_s"};

/// Every output check passed, and every printed end-to-end metric, the
/// result line's among them, is positive and finite.
void expect_clean(const Outcome& out, const std::vector<std::string>& printed) {
  EXPECT_GE(out.attempted, 1);
  for (const std::string& f : out.failures) ADD_FAILURE() << f;
  std::vector<std::string> names = printed;
  for (const CatalogEntry& e : end_to_end_catalog()) names.push_back(e.name);
  for (const std::string& name : names) {
    const Metric* m = out.e2e.find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_GT(m->value, 0.0) << name;
    EXPECT_TRUE(std::isfinite(m->value)) << name;
  }
}

void expect_layer(const Outcome& out, const std::vector<std::string>& names) {
  for (const std::string& n : names) {
    const Metric* m = out.layer.find(n);
    ASSERT_NE(m, nullptr) << n;
    EXPECT_GT(m->value, 0.0) << n;
  }
}

TEST(Smoke, AirfoilLarge) {
  Tracer t(false);
  const Outcome out = run_airfoil_large(tiny("airfoil-large", false), t);
  expect_clean(out, kStepMetrics);
  EXPECT_EQ(out.e2e.find("step_p90_ms")->samples, 12);
}

TEST(Smoke, AirfoilLargeTraced) {
  const Options o = tiny("airfoil-large", true);
  Tracer t(true);
  const Outcome out = run_airfoil_large(o, t);
  expect_clean(out, kStepMetrics);
  expect_layer(out, {"mesh.build_s", "apps.construct_s", "core.warmup_step_s",
                     "core.plan_builds", "perf.triad_gbs", "core.loop.res_calc.ms_per_call",
                     "core.loop.res_calc.gbs_computed", "core.loop.res_calc.roofline_frac",
                     "core.loop.update.step_share"});
  // Every traced step is one span with its step index as the request id.
  int steps = 0;
  for (const Span& s : t.spans()) {
    if (s.name != "step") continue;
    EXPECT_EQ(s.request % 2, 0) << "odd steps run untraced";
    ++steps;
  }
  EXPECT_EQ(steps, 6);
}

TEST(Smoke, HazardSweep) {
  Tracer t(false);
  const Outcome out = run_hazard_sweep(tiny("hazard-sweep", false), t);
  expect_clean(out, kScenarioMetrics);
  EXPECT_EQ(out.attempted, 128);
  EXPECT_EQ(out.e2e.find("scenario_p90_s")->samples, 128);
}

TEST(Smoke, HazardSweepTraced) {
  Tracer t(true);
  const Outcome out = run_hazard_sweep(tiny("hazard-sweep", true), t);
  expect_clean(out, kScenarioMetrics);
  expect_layer(out, {"serve.add_instances_s", "serve.step_ms_p50", "serve.queue_wait_ms_p50",
                     "serve.occupancy", "serve.checkpoint_ms_p50", "serve.checkpoints",
                     "serve.health_scan_ms_p50", "core.plan_hits", "perf.triad_gbs"});
  // One fault per 16 scenarios, each recovered by at least one restore.
  EXPECT_GE(out.layer.find("serve.restores")->value, 8.0);
  EXPECT_GE(out.layer.find("serve.retries")->value, 8.0);
  for (const Span& s : t.spans()) {
    if (s.name == "serve.step") {
      EXPECT_EQ(s.request % 2, 0) << "odd scenarios run untraced";
    }
  }
}

TEST(Smoke, Tet3dIngestDist) {
  Tracer t(false);
  const Outcome out = run_tet3d_ingest_dist(tiny("tet3d-ingest-dist", false), t);
  expect_clean(out, kStepMetrics);
}

TEST(Smoke, Tet3dIngestDistTraced) {
  Tracer t(true);
  const Outcome out = run_tet3d_ingest_dist(tiny("tet3d-ingest-dist", true), t);
  expect_clean(out, kStepMetrics);
  expect_layer(out, {"mesh.read_msh_s", "mesh.to_tet_s", "mesh.msh_mb_per_s",
                     "dist.wait_ms_per_step", "dist.messages_per_step", "dist.values_per_step",
                     "dist.exchange_s", "dist.rank_imbalance",
                     "core.loop.t3d_flux_calc.ms_per_call", "core.loop.t3d_grad_calc.step_share"});
  // Exchange spans are children of traced step-running spans only.
  const std::vector<Span> spans = t.spans();
  int exchanges = 0;
  for (const Span& s : spans) {
    if (s.name != "dist.wait" && s.name != "dist.begin" && s.name != "dist.exchange") continue;
    ++exchanges;
    ASSERT_GE(s.parent, 0);
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    EXPECT_TRUE(p.name == "step" || p.name == "settle" || p.name == "core.warmup_step") << p.name;
  }
  EXPECT_GT(exchanges, 0);
}

}  // namespace
}  // namespace perfbench
