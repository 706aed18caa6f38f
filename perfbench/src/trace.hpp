// In-memory span recorder for the traced benchmark run. Spans are recorded
// by the benchmark's own code around calls into the repository's layers
// (mesh, apps, core, dist, serve, perf), kept in memory while the workload
// runs, and written out once at the end. A layer's self time is its span's
// duration minus the part of that interval its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;         ///< seconds since the tracer's epoch
  double end = 0.0;           ///< seconds since the tracer's epoch
  int parent = -1;            ///< index of the causing span, -1 = root
  std::int64_t request = -1;  ///< step index or scenario id, -1 = none
};

/// Thread-safe span store. A disabled tracer records nothing, so the
/// untraced run pays one branch per instrumented call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Seconds since this tracer was constructed (steady clock).
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(clock::now() - epoch_).count();
  }

  /// Open a span and return its id; -1 (and nothing recorded) when disabled.
  int open(std::string name, std::int64_t request, int parent);
  void close(int id);

  /// The innermost span open on the calling thread through a Scope, -1
  /// when none (children recorded from transport callbacks use it).
  [[nodiscard]] static int current();

  /// RAII span that also becomes the calling thread's current span.
  class Scope {
   public:
    Scope(Tracer* t, std::string name, std::int64_t request, int parent);
    /// Child of the thread's current span; records nothing when the thread
    /// has no traced span open (an untraced request).
    Scope(Tracer* t, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const { return id_; }

   private:
    Tracer* t_;
    int id_ = -1;
    int prev_ = -1;
  };

  [[nodiscard]] std::vector<Span> spans() const;

  /// Write {"spans": [...], "self_s": {name: seconds}} to `path`.
  void write_json(const std::string& path) const;

 private:
  using clock = std::chrono::steady_clock;
  bool enabled_;
  clock::time_point epoch_ = clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// Per-span self time: duration minus the union of its children's
/// intervals, clipped to the span (children on parallel workers overlap,
/// so their union — not their sum — is what the parent did not do itself).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Self time summed per span name.
std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans);

}  // namespace perfbench
