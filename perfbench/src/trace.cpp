#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Trace::Trace() : origin_(Clock::now()) {}

double Trace::now_ms() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
      .count();
}

int Trace::begin(std::string name, bool probe) {
  const int parent = open_.empty() ? -1 : open_.back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), parent, probe, true, now_ms(), -1.0});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

int Trace::begin_child(std::string name, int parent) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), parent, false, false, now_ms(), -1.0});
  return static_cast<int>(spans_.size()) - 1;
}

void Trace::end(int id) {
  const double t = now_ms();
  bool nested = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_.at(static_cast<std::size_t>(id));
    span.end_ms = t;
    nested = span.nested;
  }
  // A span closed out of order stays on the stack; finish() reports it.
  if (nested && !open_.empty() && open_.back() == id) open_.pop_back();
}

double Trace::Scope::ms() const {
  std::lock_guard<std::mutex> lock(trace_.mutex_);
  const Span& s = trace_.spans_.at(static_cast<std::size_t>(id_));
  return (s.end_ms < 0.0 ? trace_.now_ms() : s.end_ms) - s.start_ms;
}

void Trace::finish() {
  if (!open_.empty()) throw std::logic_error("Trace: span left open or closed out of order");
  wall_ms_ = now_ms() - probe_ms();
}

double Trace::probe_ms() const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0 && s.probe) sum += s.ms();
  }
  return sum;
}

double Trace::coverage() const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0 && !s.probe) sum += s.ms();
  }
  return wall_ms_ > 0.0 ? sum / wall_ms_ : 0.0;
}

double Trace::self_ms(int id) const {
  const Span& span = spans_.at(static_cast<std::size_t>(id));
  std::vector<std::pair<double, double>> children;
  for (const Span& s : spans_) {
    if (s.parent == id) children.emplace_back(s.start_ms, s.end_ms);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = span.start_ms;
  for (const auto& [lo, hi] : children) {
    const double from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return span.ms() - covered;
}

std::string Trace::to_json() const {
  std::string out = "[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                  "\"probe\": %s, \"start_ms\": %.6f, \"end_ms\": %.6f, "
                  "\"self_ms\": %.6f}",
                  i == 0 ? "" : ",", i, s.name.c_str(), s.parent,
                  s.probe ? "true" : "false", s.start_ms, s.end_ms,
                  self_ms(static_cast<int>(i)));
    out += buf;
  }
  out += "\n]";
  return out;
}

}  // namespace perfbench
