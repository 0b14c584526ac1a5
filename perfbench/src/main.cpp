// perfbench — runs one iteration of a benchmark workload and prints one
// JSON line describing it (perfbench/run.py runs many and turns them into
// the reported metrics).
//
//   perfbench --workload NAME --seed N --input K --trace 0|1
//             [--refs DIR] [--toy] [--t0-ns NS] [--spans FILE]
//   perfbench --workload NAME --seed N --record FILE --inputs K [--toy]
//
// Input K of a seed is drawn from stream_seed(seed, K); run.py decides how
// many inputs a seed has. Each process runs one iteration on one input, so
// every iteration starts as a user's run does: a fresh process, a fresh
// StageGame and a cold solve cache. --trace 1 runs the traced composition
// instead of the untraced pipeline.
//
// The iteration's outputs are compared bitwise with input K of the
// reference DIR/<workload>[.toy].seed<N>.ref when that file exists; the
// printed digest lets the caller compare iterations of one input across
// processes when it does not. A mismatch, an exception or a failed traced
// self-check is listed under "failures".
//
// --t0-ns is the caller's CLOCK_MONOTONIC reading taken just before it
// started this process; setup_s is measured from it to the start of the
// iteration. --record writes the reference of a seed, one untraced
// iteration on each of inputs 0..K-1.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "parallel/replication.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t input = 0;
  bool trace = false;
  bool toy = false;
  std::string refs_dir = "perfbench/refs";
  std::optional<std::int64_t> t0_ns;
  std::string spans_path;
  std::string record_path;
  std::size_t record_inputs = 0;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

template <class T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) usage("bad value for " + flag);
  return value;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>(flag, value());
    } else if (flag == "--input") {
      a.input = parse_number<std::size_t>(flag, value());
    } else if (flag == "--trace") {
      a.trace = parse_number<int>(flag, value()) != 0;
    } else if (flag == "--refs") {
      a.refs_dir = value();
    } else if (flag == "--toy") {
      a.toy = true;
    } else if (flag == "--t0-ns") {
      a.t0_ns = parse_number<std::int64_t>(flag, value());
    } else if (flag == "--spans") {
      a.spans_path = value();
    } else if (flag == "--record") {
      a.record_path = value();
    } else if (flag == "--inputs") {
      a.record_inputs = parse_number<std::size_t>(flag, value());
    } else {
      usage("unknown argument " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!a.record_path.empty() && a.record_inputs == 0) {
    usage("--record needs --inputs");
  }
  return a;
}

Workload find_workload(const std::string& name, bool toy) {
  for (Workload w : {city_1e5(toy), city_1e4_slots(toy), table2_sim(toy),
                     enforced_tournament(toy)}) {
    if (w.name == name) return w;
  }
  usage("unknown workload " + name);
}

std::string reference_path(const Args& a) {
  return a.refs_dir + "/" + a.workload + (a.toy ? ".toy" : "") + ".seed" +
         std::to_string(a.seed) + ".ref";
}

std::uint64_t input_seed(std::uint64_t seed, std::size_t input) {
  return smac::parallel::stream_seed(seed, input);
}

using Expected = std::map<std::size_t, Outputs>;  // by input index

// Reference files hold one "input<TAB>key<TAB>value" line per output,
// after a header comment line.
std::optional<Expected> load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Expected expected;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto tab1 = line.find('\t');
    const auto tab2 = line.find('\t', tab1 + 1);
    if (tab1 == std::string::npos || tab2 == std::string::npos) {
      throw std::runtime_error("malformed reference line in " + path);
    }
    const auto input = parse_number<std::size_t>("reference input",
                                                 line.substr(0, tab1));
    expected[input].add(line.substr(tab1 + 1, tab2 - tab1 - 1),
                        line.substr(tab2 + 1));
  }
  return expected;
}

void write_reference(const std::string& path, const Args& a,
                     const Workload& workload) {
  std::ofstream out(path);
  out << "# perfbench reference: workload=" << a.workload
      << " seed=" << a.seed << (a.toy ? " toy" : "") << "\n";
  for (std::size_t k = 0; k < a.record_inputs; ++k) {
    const Outputs outputs = workload.run(input_seed(a.seed, k));
    for (const auto& [key, value] : outputs.items()) {
      out << k << '\t' << key << '\t' << value << '\n';
    }
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string first_difference(const Outputs& got, const Outputs& want) {
  const auto& g = got.items();
  const auto& w = want.items();
  for (std::size_t i = 0; i < std::min(g.size(), w.size()); ++i) {
    if (g[i] != w[i]) {
      return g[i].first + " = " + g[i].second + ", expected " + w[i].first +
             " = " + w[i].second;
    }
  }
  return "output has " + std::to_string(g.size()) + " entries, expected " +
         std::to_string(w.size());
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// would also count the parent's footprint, which it inherits across
/// fork and keeps across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      double kib = 0.0;
      std::istringstream(line.substr(6)) >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double monotonic_ns_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// FNV-1a over the serialized outputs.
std::string digest(const Outputs& outputs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [key, value] : outputs.items()) {
    for (const std::string* part : {&key, &value}) {
      for (const char c : *part + '\t') {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
      }
    }
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

int run(const Args& a) {
  const Workload workload = find_workload(a.workload, a.toy);
  if (!a.record_path.empty()) {
    write_reference(a.record_path, a, workload);
    return 0;
  }
  const std::optional<Expected> reference = load_reference(reference_path(a));
  const std::uint64_t seed = input_seed(a.seed, a.input);
  const double setup_s =
      a.t0_ns ? (monotonic_ns_now() - static_cast<double>(*a.t0_ns)) * 1e-9
              : 0.0;

  Failures failures;
  double wall_s = 0.0;
  std::string out_digest;
  LayerMetrics metrics;
  try {
    std::optional<Outputs> got;
    if (!a.trace) {
      const Clock::time_point start = Clock::now();
      got = workload.run(seed);
      wall_s = seconds_since(start);
    } else {
      Trace trace;
      got = workload.run_traced(seed, trace, metrics, failures);
      trace.finish();
      wall_s = trace.wall_ms() * 1e-3;
      metrics["trace.coverage"] = trace.coverage();
      expect(trace.coverage() >= 0.95, failures,
             "trace coverage " + json_number(trace.coverage()) + " below 0.95");
      if (!a.spans_path.empty()) {
        std::ofstream spans(a.spans_path);
        spans << "{\"workload\": " << json_string(a.workload)
              << ", \"seed\": " << a.seed << ", \"input\": " << a.input
              << ", \"spans\": " << trace.to_json() << "}\n";
      }
    }
    out_digest = digest(*got);
    if (reference) {
      const auto want = reference->find(a.input);
      if (want == reference->end()) {
        failures.push_back("reference lacks input " + std::to_string(a.input));
      } else if (*got != want->second) {
        failures.push_back("reference mismatch: " +
                           first_difference(*got, want->second));
      }
    }
  } catch (const std::exception& e) {
    failures.push_back(std::string("exception: ") + e.what());
  }

  std::string out = "{\"setup_s\": " + json_number(setup_s);
  out += std::string(a.trace ? ", \"traced_wall_s\": " : ", \"run_s\": ") +
         json_number(wall_s);
  out += ", \"peak_rss_mb\": " + json_number(peak_rss_mb());
  out += ", \"reference\": " + std::string(reference ? "true" : "false");
  out += ", \"digest\": " + json_string(out_digest);
  out += ", \"layer\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out += (first ? "" : ", ") + json_string(name) + ": " + json_number(value);
    first = false;
  }
  out += "}, \"failures\": [";
  first = true;
  for (const std::string& f : failures) {
    std::fprintf(stderr, "perfbench: %s: %s\n", a.workload.c_str(), f.c_str());
    out += (first ? "" : ", ") + json_string(f);
    first = false;
  }
  out += "], \"host\": {\"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
         ", \"workers\": " + std::to_string(kWorkers) + "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

void Outputs::add(const std::string& key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  items_.emplace_back(key, buf);
}

void Outputs::add(const std::string& key, std::size_t value) {
  items_.emplace_back(key, std::to_string(value));
}

void Outputs::add(const std::string& key, int value) {
  items_.emplace_back(key, std::to_string(value));
}

void Outputs::add(const std::string& key, std::string value) {
  items_.emplace_back(key, std::move(value));
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
