#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "metrics.hpp"

namespace perfbench {

namespace {
thread_local int tls_current = -1;
}  // namespace

int Tracer::open(std::string name, std::int64_t request, int parent) {
  if (!enabled_) return -1;
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), t, NAN, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id) {
  if (id < 0) return;
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

int Tracer::current() { return tls_current; }

Tracer::Scope::Scope(Tracer* t, std::string name, std::int64_t request, int parent) : t_(t) {
  if (t_ == nullptr) return;
  id_ = t_->open(std::move(name), request, parent);
  if (id_ >= 0) {
    prev_ = tls_current;
    tls_current = id_;
  }
}

Tracer::Scope::Scope(Tracer* t, std::string name) : t_(t) {
  if (t_ == nullptr || tls_current < 0) return;
  id_ = t_->open(std::move(name), -1, tls_current);
  if (id_ >= 0) {
    prev_ = tls_current;
    tls_current = id_;
  }
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  t_->close(id_);
  tls_current = prev_;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "  {\"id\": " << i << ", \"name\": " << json_string(s.name)
        << ", \"start\": " << json_number(s.start) << ", \"end\": " << json_number(s.end)
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request << "}"
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "],\n\"self_s\": {";
  bool first = true;
  for (const auto& [name, secs] : self_time_by_name(all)) {
    out << (first ? "" : ", ") << json_string(name) << ": " << json_number(secs);
    first = false;
  }
  out << "}}\n";
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);

  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    const double dur = p.end - p.start;
    if (!(dur > 0.0)) continue;  // open or empty span
    auto& iv = kids[i];
    for (auto& [a, b] : iv) {
      a = std::max(a, p.start);
      b = std::isnan(b) ? p.end : std::min(b, p.end);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[i] = dur - covered;
  }
  return self;
}

std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

}  // namespace perfbench
