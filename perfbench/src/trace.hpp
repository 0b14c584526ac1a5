// In-memory span recorder for the benchmark's traced runs.
//
// A span is a named wall-clock interval with a parent. Spans are opened
// around the benchmark's own calls into each library layer, kept in
// memory while the iteration runs, and written out when the run ends.
// A layer's self time is its span minus the union of its child spans
// (children may overlap when they ran on pool workers).
#pragma once

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

class Trace {
 public:
  struct Span {
    std::string name;
    int parent = -1;      ///< index of the parent span, -1 at top level
    bool probe = false;   ///< diagnostic work outside the measured pipeline
    bool nested = false;  ///< opened by begin() on the nesting stack
    double start_ms = 0;  ///< relative to the trace origin
    double end_ms = 0;
    double ms() const { return end_ms - start_ms; }
  };

  Trace();

  /// Opens a span on the calling thread's nesting stack (main thread
  /// only); its parent is the innermost open span.
  int begin(std::string name, bool probe = false);
  /// Opens a span with an explicit parent without touching the nesting
  /// stack — for work running on pool workers. Thread-safe.
  int begin_child(std::string name, int parent);
  void end(int id);

  /// RAII form of begin()/end().
  class Scope {
   public:
    Scope(Trace& trace, std::string name, bool probe = false)
        : trace_(trace), id_(trace.begin(std::move(name), probe)) {}
    Scope(Trace& trace, std::string name, int parent)
        : trace_(trace), id_(trace.begin_child(std::move(name), parent)) {}
    ~Scope() { trace_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }
    /// Duration so far (or the final one after the span closed).
    double ms() const;

   private:
    Trace& trace_;
    int id_;
  };

  /// Finishes the trace: the traced wall is the time since construction
  /// minus every top-level probe span.
  void finish();
  double wall_ms() const { return wall_ms_; }
  /// Σ top-level non-probe spans ÷ traced wall.
  double coverage() const;

  /// JSON array of spans with name, parent, start/end and self time.
  std::string to_json() const;

 private:
  double now_ms() const;
  double probe_ms() const;
  double self_ms(int id) const;

  Clock::time_point origin_;
  mutable std::mutex mutex_;  // guards spans_ (workers append children)
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< main-thread nesting stack
  double wall_ms_ = 0.0;
};

}  // namespace perfbench
