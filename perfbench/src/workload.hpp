// Workload interface of the benchmark harness.
//
// A workload is one pipeline users run, driven through the library's
// public functions. Each one has two paths:
//   * run()        — the untraced iteration the end-to-end metrics time;
//   * run_traced() — the same pipeline composed call by call from the
//                    library's layers, with a span around each call, plus
//                    self-checks that the composition still computes what
//                    run() computes.
// Both return the iteration's deterministic outputs, which the harness
// compares bitwise against a recorded reference (or, for a seed without
// one, against the first iteration of the run).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Ordered (key, value) pairs; doubles are printed with 17 significant
/// digits, so equal text means equal bits.
class Outputs {
 public:
  void add(const std::string& key, double value);
  void add(const std::string& key, std::size_t value);
  void add(const std::string& key, int value);
  void add(const std::string& key, std::string value);
  const std::vector<std::pair<std::string, std::string>>& items() const {
    return items_;
  }
  bool operator==(const Outputs&) const = default;

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

/// Per-layer metrics of one traced iteration, by name. A workload sets
/// only the layers it exercises; run.py reports the rest of the names
/// BENCHMARK.json lists as 0 and rejects any name it does not list.
using LayerMetrics = std::map<std::string, double>;

/// Self-check failures of one traced iteration, one line each.
using Failures = std::vector<std::string>;

struct Workload {
  std::string name;
  std::function<Outputs(std::uint64_t seed)> run;
  std::function<Outputs(std::uint64_t seed, Trace& trace,
                        LayerMetrics& metrics, Failures& failures)>
      run_traced;
};

/// `toy` shrinks every size for the harness self-test (perfbench/selftest.py).
Workload city_1e5(bool toy);
Workload city_1e4_slots(bool toy);
Workload table2_sim(bool toy);
Workload enforced_tournament(bool toy);

/// Workers any workload runs at once (the pools, solver chunking and
/// PDES teams are each this wide and never run concurrently).
inline constexpr std::size_t kWorkers = 4;

/// Records `what` into `failures` unless `ok`.
inline void expect(bool ok, Failures& failures, std::string what) {
  if (!ok) failures.push_back(std::move(what));
}

}  // namespace perfbench
