// Wrappers the benchmark installs at the repository's existing public seams
// to time and count what happens inside the serve and dist layers, without
// touching the library:
//   * TracedInstance decorates a serve::Checkpointable (applied through the
//     instance factory) and times step / healthy / checkpoint / restore,
//     stamps each scenario's step completion times and tags its spans with
//     the scenario id;
//   * CountingExchanger decorates a dist::Exchanger (installed with
//     DistCtx::set_exchanger) and times begin / wait, counting messages and
//     scalar values moved.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "dist/exchange.hpp"
#include "serve/ensemble.hpp"
#include "trace.hpp"

namespace perfbench {

/// What one scenario's wrapper saw. Written only by the worker that owns
/// the instance (the scheduler's exclusive ownership), read after run().
struct ScenarioLog {
  std::vector<double> step_ms;        ///< wall time of each step() call
  std::vector<double> gap_ms;         ///< end of one step to start of the next
  std::vector<double> checkpoint_ms;  ///< wall time of each checkpoint()
  std::vector<double> health_ms;      ///< wall time of each healthy() scan
  std::int64_t restores = 0;
  double last_end = -1.0;             ///< tracer time of the latest step end
};

/// Serve-layer wrapper: times every Checkpointable call of one scenario
/// against `clock`. With a non-null `tracer`, each call is also recorded as
/// a span (request = scenario id) under the span `*parent` names when the
/// call starts.
class TracedInstance final : public opv::serve::Checkpointable {
 public:
  TracedInstance(std::unique_ptr<opv::serve::Checkpointable> inner, int scenario,
                 const Tracer& clock, Tracer* tracer, const std::atomic<int>* parent,
                 ScenarioLog& log)
      : inner_(std::move(inner)), scenario_(scenario), clock_(clock), tracer_(tracer),
        parent_(parent), log_(log) {}

  void step() override {
    Tracer::Scope span(tracer_, "serve.step", scenario_, parent());
    const double t0 = clock_.now();
    if (log_.last_end >= 0.0) log_.gap_ms.push_back(1e3 * (t0 - log_.last_end));
    inner_->step();
    const double t1 = clock_.now();
    log_.step_ms.push_back(1e3 * (t1 - t0));
    log_.last_end = t1;
  }

  [[nodiscard]] bool healthy() override {
    Tracer::Scope span(tracer_, "serve.health_scan", scenario_, parent());
    const double t0 = clock_.now();
    const bool ok = inner_->healthy();
    log_.health_ms.push_back(1e3 * (clock_.now() - t0));
    return ok;
  }

  [[nodiscard]] opv::Checkpoint checkpoint() override {
    Tracer::Scope span(tracer_, "serve.checkpoint", scenario_, parent());
    const double t0 = clock_.now();
    opv::Checkpoint c = inner_->checkpoint();
    log_.checkpoint_ms.push_back(1e3 * (clock_.now() - t0));
    return c;
  }

  void restore(const opv::Checkpoint& c) override {
    Tracer::Scope span(tracer_, "serve.restore", scenario_, parent());
    inner_->restore(c);
    ++log_.restores;
  }

  void degrade(int attempt) override { inner_->degrade(attempt); }

  [[nodiscard]] opv::serve::Checkpointable& inner() { return *inner_; }

 private:
  [[nodiscard]] int parent() const { return parent_ ? parent_->load() : -1; }

  std::unique_ptr<opv::serve::Checkpointable> inner_;
  int scenario_;
  const Tracer& clock_;
  Tracer* tracer_;  ///< nullptr = this scenario records no spans
  const std::atomic<int>* parent_;
  ScenarioLog& log_;
};

/// Exchange-layer totals since the last reset().
struct ExchangeTally {
  double begin_seconds = 0.0;  ///< time inside begin()
  double wait_seconds = 0.0;   ///< time compute waited: wait() and blocking exchange()
  std::int64_t messages = 0;   ///< (owner, destination) halo runs started
  std::int64_t values = 0;     ///< scalar values moved
};

/// Dist-layer wrapper: delegates to `inner` and accounts for every call.
/// A message is one non-empty (owner rank -> destination rank) halo run of
/// one dat, the unit a two-sided transport would send.
class CountingExchanger final : public opv::dist::Exchanger {
 public:
  CountingExchanger(std::unique_ptr<opv::dist::Exchanger> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::int64_t exchange(const opv::dist::Partitioned& part,
                        const opv::dist::DatHaloView& view) override {
    tally_.messages += messages(part, view.set);
    Tracer::Scope span(tracer_, "dist.exchange");
    const opv::WallTimer t;
    const std::int64_t v = inner_->exchange(part, view);
    tally_.wait_seconds += t.seconds();
    tally_.values += v;
    return v;
  }

  void begin(const opv::dist::Partitioned& part, const opv::dist::DatHaloView& view) override {
    tally_.messages += messages(part, view.set);
    Tracer::Scope span(tracer_, "dist.begin");
    const opv::WallTimer t;
    inner_->begin(part, view);
    tally_.begin_seconds += t.seconds();
  }

  std::int64_t wait(const opv::dist::Partitioned& part,
                    const opv::dist::DatHaloView& view) override {
    Tracer::Scope span(tracer_, "dist.wait");
    const opv::WallTimer t;
    const std::int64_t v = inner_->wait(part, view);
    tally_.wait_seconds += t.seconds();
    tally_.values += v;
    return v;
  }

  [[nodiscard]] const char* name() const override { return inner_->name(); }

  [[nodiscard]] const ExchangeTally& tally() const { return tally_; }
  void reset() { tally_ = {}; }

 private:
  /// Messages one exchange of a dat on `set` sends (pinned per set).
  std::int64_t messages(const opv::dist::Partitioned& part, int set) {
    auto it = messages_.find(set);
    if (it != messages_.end()) return it->second;
    std::int64_t n = 0;
    for (int r = 0; r < part.nranks(); ++r) {
      const opv::dist::LocalLayout& L = part.layout(r, set);
      std::vector<char> seen(static_cast<std::size_t>(part.nranks()), 0);
      for (const int owner : L.src_rank) {
        if (!seen[static_cast<std::size_t>(owner)]) {
          seen[static_cast<std::size_t>(owner)] = 1;
          ++n;
        }
      }
    }
    return messages_.emplace(set, n).first->second;
  }

  std::unique_ptr<opv::dist::Exchanger> inner_;
  Tracer* tracer_;
  ExchangeTally tally_;
  std::unordered_map<int, std::int64_t> messages_;  ///< per set
};

}  // namespace perfbench
