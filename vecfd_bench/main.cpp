// vecfd_bench — end-to-end and per-layer benchmark of the vecfd toolkit.
//
//   vecfd_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//               [--spans PATH] [--out PATH]
//       Run one workload in this process and print its metrics, one
//       `workload metric value unit [n= q1= q3=]` line each, then one JSON
//       object as the last line of stdout.  --trace 0 measures the
//       end-to-end metrics untraced; --trace 1 runs the traced pass and
//       reports the per-layer metrics (spans go to --spans).
//   vecfd_bench [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//               [--out PATH]
//       Run every workload, each in its own child process (/proc/self/exe
//       --workload W ..., one at a time).  --trace 1 adds the traced pass
//       after the untraced one and prints the tracing overhead.
//   vecfd_bench --self-check
//       Compare the metric and workload tables with ./BENCHMARK.json and
//       exercise the command-line contract against /proc/self/exe.
//
// Every invalid argument exits 2 naming the flag; a failed correctness
// check exits 1 naming the workload.  See README.md.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"

extern char** environ;

namespace vecfd::bench {
namespace {

namespace fs = std::filesystem;

/// Set-ups per repetition: repeated up to kMaxSetupsPerRep times while
/// under kSetupSeconds, so small set-ups get many samples, spread over the
/// whole run rather than bunched where one burst of host noise could move
/// their median.  The last set-up's objects serve the repetition.
constexpr int kMaxSetupsPerRep = 10;
constexpr double kSetupSeconds = 0.1;
/// Measured repetitions: at least kMinReps, then until --seconds is used.
constexpr int kMinReps = 3;
constexpr int kMaxReps = 1000;

// ---- build guard and provenance ---------------------------------------------

/// Why host times from this build would be meaningless, or null.
const char* build_unfit() {
#if !defined(__OPTIMIZE__)
  return "built without optimization (__OPTIMIZE__ is not defined)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(VECFD_BENCH_SANITIZED)
  return "built with a sanitizer";
#elif defined(VECFD_MEASUREMENT_GUARD)
  return "built with VECFD_MEASUREMENT_GUARD";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "built with a sanitizer";
#else
  return nullptr;
#endif
#else
  return nullptr;
#endif
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

const char* build_flags() {
#ifdef VECFD_BENCH_CXX_FLAGS
  return VECFD_BENCH_CXX_FLAGS;
#else
  return "unknown";
#endif
}

long nproc() { return sysconf(_SC_NPROCESSORS_ONLN); }

// ---- command line -------------------------------------------------------------

struct Options {
  std::string workload;  ///< empty: every workload, one child each
  std::uint64_t seed = 1;
  int seconds = 20;  ///< BENCHMARK.json's run_seconds
  bool trace = false;
  std::string spans;
  std::string out;
  bool self_check = false;
};

bool fail_arg(const std::string& flag, const std::string& why) {
  std::cerr << "vecfd_bench: " << flag << ": " << why << '\n';
  return false;
}

/// Strict non-negative integer: digits only, no sign, no trailing text.
bool parse_uint(const std::string& text, std::uint64_t max,
                std::uint64_t& out) {
  if (text.empty() || text.size() > 20) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || v > max) return false;
  out = v;
  return true;
}

bool known_workload(const std::string& name) {
  const std::vector<std::string>& names = workload_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      o.self_check = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--spans" && flag != "--out") {
      return fail_arg(flag, "unknown flag");
    }
    if (i + 1 >= argc) return fail_arg(flag, "missing value");
    const std::string value = argv[++i];
    std::uint64_t v = 0;
    if (flag == "--workload") {
      if (!known_workload(value)) {
        return fail_arg(flag, "unknown workload '" + value + "'");
      }
      o.workload = value;
    } else if (flag == "--seed") {
      if (!parse_uint(value, UINT64_MAX, v)) {
        return fail_arg(flag, "want a non-negative integer, got '" + value +
                                  "'");
      }
      o.seed = v;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, 600, v) || v == 0) {
        return fail_arg(flag, "want an integer in [1, 600], got '" + value +
                                  "'");
      }
      o.seconds = static_cast<int>(v);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return fail_arg(flag, "want 0 or 1, got '" + value + "'");
      }
      o.trace = value == "1";
    } else if (flag == "--spans") {
      o.spans = value;
    } else {
      o.out = value;
    }
  }
  return true;
}

// ---- output ---------------------------------------------------------------------

/// One workload's reported result.
struct WorkloadResult {
  std::string workload;
  bool traced = false;
  bool correct = true;
  int attempted = 0;
  int failed = 0;
  std::vector<MetricValue> metrics;
};

std::string num(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

void print_header(const Options& o) {
  std::cout << "# vecfd_bench workload=" << (o.workload.empty() ? "all" : o.workload)
            << " seed=" << o.seed << " seconds=" << o.seconds
            << " trace=" << (o.trace ? 1 : 0) << " nproc=" << nproc()
            << " compiler=\"" << compiler() << "\" flags=\"" << build_flags()
            << "\"\n";
}

std::string metric_line(const std::string& workload, const MetricValue& m) {
  std::string line = workload + ' ' + m.name + ' ' + num(m.value, 10) + ' ' +
                     m.unit;
  if (m.host.n > 0) {
    line += " n=" + std::to_string(m.host.n) + " q1=" + num(m.host.q1, 10) +
            " q3=" + num(m.host.q3, 10);
  }
  return line;
}

/// `"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}`;
/// @p quartiles adds n, q1 and q3 to host timings.
std::string result_fields(const WorkloadResult& r, bool quartiles) {
  std::string s = std::string("\"correct\": ") +
                  (r.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const MetricValue& m = r.metrics[i];
    s += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
         num(m.value, 17) + ", \"unit\": \"" + m.unit + '"';
    if (quartiles && m.host.n > 0) {
      s += ", \"n\": " + std::to_string(m.host.n) +
           ", \"q1\": " + num(m.host.q1, 17) +
           ", \"q3\": " + num(m.host.q3, 17);
    }
    s += '}';
  }
  return s + '}';
}

void write_out(const std::string& path, const Options& o,
               const std::vector<WorkloadResult>& results) {
  std::ofstream os(path);
  os << "{\n  \"provenance\": {\"seed\": " << o.seed
     << ", \"seconds\": " << o.seconds << ", \"trace\": " << (o.trace ? 1 : 0)
     << ", \"nproc\": " << nproc() << ", \"compiler\": \"" << compiler()
     << "\", \"flags\": \"" << build_flags() << "\"},\n  \"results\": [";
  for (std::size_t w = 0; w < results.size(); ++w) {
    const WorkloadResult& r = results[w];
    os << (w > 0 ? "," : "") << "\n    {\"workload\": \"" << r.workload
       << "\", \"traced\": " << (r.traced ? "true" : "false") << ", "
       << result_fields(r, true) << '}';
  }
  os << "\n  ]\n}\n";
  if (!os) {
    throw std::runtime_error("cannot write '" + path + "'");
  }
}

// ---- one workload, in this process ----------------------------------------

/// Name of the first registered counter that differs between @p a and
/// @p b, or empty when every counter is identical.
std::string first_difference(const RepOutcome& a, const RepOutcome& b) {
  if (a.fingerprint.size() != b.fingerprint.size()) return "run count";
  std::string diff;
  for (std::size_t i = 0; i < a.fingerprint.size() && diff.empty(); ++i) {
    sim::Counters::visit_pairs(
        a.fingerprint[i], b.fingerprint[i],
        [&](const sim::CounterInfo& info, const auto& x, const auto& y) {
          if (diff.empty() && x != y) diff = info.name;
        });
  }
  return diff;
}

/// Fold one repetition into the result: counts and the correctness checks.
void account(WorkloadResult& r, std::string& error, const RepOutcome& first,
             const RepOutcome& rep, int index) {
  r.attempted += rep.attempted;
  r.failed += rep.failed;
  if (!error.empty()) return;
  if (!rep.error.empty()) {
    error = rep.error;
  } else if (const std::string d = first_difference(first, rep); !d.empty()) {
    error = "repetition " + std::to_string(index) +
            " differs from repetition 1 in counter '" + d + "'";
  }
}

/// Untraced pass: the end-to-end metrics.
std::string measured_pass(Workload& w, const Options& o, WorkloadResult& r,
                          MetricSink& sink) {
  // Warm-up repetition: discarded, but its counters are the reference.
  w.setup();
  w.run();
  const RepOutcome first = w.outcome();
  std::string error = first.error;

  std::vector<double> setups;
  std::vector<double> runs;
  std::vector<double> rates;
  const Clock::time_point t0 = Clock::now();
  while (static_cast<int>(runs.size()) < kMinReps ||
         (seconds_since(t0) < o.seconds &&
          static_cast<int>(runs.size()) < kMaxReps)) {
    const Clock::time_point ts = Clock::now();
    for (int k = 0; k < kMaxSetupsPerRep; ++k) {
      const Clock::time_point t = Clock::now();
      w.setup();
      setups.push_back(seconds_since(t));
      if (seconds_since(ts) >= kSetupSeconds) break;
    }
    const Clock::time_point t = Clock::now();
    w.run();
    runs.push_back(seconds_since(t));
    const RepOutcome rep = w.outcome();
    rates.push_back(static_cast<double>(rep.instrs) / runs.back() / 1e6);
    account(r, error, first, rep, static_cast<int>(runs.size()) + 1);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  sink.put("setup_s", summarize(setups));
  sink.put("run_s", summarize(runs));
  sink.put("sim_minstr_per_s", summarize(rates));
  sink.put("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  sink.put("modelled_cycles", first.modelled_cycles);
  sink.put("critical_path_cycles", first.critical_path_cycles);
  return error;
}

/// Traced pass: one end-to-end repetition inside spans, then the layer
/// probes.
std::string traced_pass(Workload& w, const Options& o,
                        const std::string& scratch, WorkloadResult& r,
                        MetricSink& sink) {
  w.setup();
  w.run();
  const RepOutcome first = w.outcome();
  std::string error = first.error;

  SpanRecorder rec;
  {
    ScopedSpan e2e(rec, "e2e");
    {
      ScopedSpan s(rec, "e2e.setup");
      w.setup();
    }
    ScopedSpan s(rec, "e2e.run");
    w.run();
  }
  const RepOutcome traced = w.outcome();
  account(r, error, first, traced, 2);
  sink.put("bench.traced_run_s", summarize(rec.durations("e2e.run")));

  const std::string probe_error =
      run_layer_probes(w, traced, o.seed, o.seconds, scratch, rec, sink,
                       r.attempted, r.failed);
  if (error.empty()) error = probe_error;
  if (!o.spans.empty()) rec.write_json(o.spans, o.workload);
  return error;
}

/// Removes the workload's scratch directory on every exit path.
struct ScratchDir {
  explicit ScratchDir(std::string p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string path;
};

int run_one(const Options& o) {
  print_header(o);
  const ScratchDir scratch(".bench_build/tmp/" + o.workload + '-' +
                           std::to_string(getpid()));
  const std::unique_ptr<Workload> w =
      make_workload(o.workload, o.seed, scratch.path);
  WorkloadResult r;
  r.workload = o.workload;
  r.traced = o.trace;
  MetricSink sink(o.trace ? per_layer_metrics() : end_to_end_metrics());
  std::string error;
  try {
    error = o.trace ? traced_pass(*w, o, scratch.path, r, sink)
                    : measured_pass(*w, o, r, sink);
  } catch (const std::exception& e) {
    std::cerr << "vecfd_bench: " << o.workload << ": " << e.what() << '\n';
    return 1;
  }
  for (const std::string& m : sink.missing()) {
    if (error.empty()) error = "metric '" + m + "' was not measured";
  }
  for (const MetricValue& m : sink.values()) {
    if (!std::isfinite(m.value) && error.empty()) {
      error = "metric '" + m.name + "' is not finite";
    }
  }
  r.metrics = sink.values();
  r.correct = error.empty();
  for (const MetricValue& m : r.metrics) {
    std::cout << metric_line(o.workload, m) << '\n';
  }
  if (!r.correct) {
    std::cerr << "vecfd_bench: " << o.workload
              << ": correctness check failed: " << error << '\n';
  }
  if (!o.out.empty()) write_out(o.out, o, {r});
  // The last line of stdout.
  std::cout << '{' << result_fields(r, false) << '}' << std::endl;
  return r.correct ? 0 : 1;
}

// ---- child processes ----------------------------------------------------------

/// Run /proc/self/exe with @p args, waiting for it to end.  The child's
/// @p capture_fd (1 or 2) is handed to @p on_line line by line; its other
/// output stream is discarded when @p quiet, else inherited.  Returns the
/// exit code (128 + signal when killed).
int spawn_self(const std::vector<std::string>& args, int capture_fd,
               bool quiet, const std::function<void(const std::string&)>& on_line) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], capture_fd);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  if (quiet) {
    posix_spawn_file_actions_addopen(&fa, capture_fd == 1 ? 2 : 1,
                                     "/dev/null", O_WRONLY, 0);
  }
  std::vector<std::string> full = {"/proc/self/exe"};
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : full) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::cout.flush();
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, "/proc/self/exe", &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw std::runtime_error(std::string("posix_spawn failed: ") +
                             std::strerror(rc));
  }
  std::string pending;
  char buf[4096];
  for (;;) {
    const ssize_t got = read(fds[0], buf, sizeof buf);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    pending.append(buf, static_cast<std::size_t>(got));
    for (std::size_t nl; (nl = pending.find('\n')) != std::string::npos;) {
      on_line(pending.substr(0, nl));
      pending.erase(0, nl + 1);
    }
  }
  if (!pending.empty()) on_line(pending);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

/// Parse the lines a `--workload` child prints back into its result.
void parse_child_line(const std::string& line, WorkloadResult& r) {
  static const std::regex metric(
      R"(^(\S+) (\S+) (\S+) (\S+)(?: n=(\d+) q1=(\S+) q3=(\S+))?$)");
  static const std::regex result(
      R"re(^\{"correct": (true|false), "attempted": (\d+), "failed": (\d+),)re");
  std::smatch m;
  if (std::regex_search(line, m, result)) {
    r.correct = m[1] == "true";
    r.attempted = std::stoi(m[2]);
    r.failed = std::stoi(m[3]);
  } else if (std::regex_match(line, m, metric) && m[1] == r.workload) {
    MetricValue v;
    v.name = m[2];
    v.value = std::stod(m[3]);
    v.unit = m[4];
    if (m[5].matched) {
      v.host = {std::stod(m[3]), std::stod(m[6]), std::stod(m[7]),
                std::stoi(m[5])};
    }
    r.metrics.push_back(v);
  }
}

double metric_of(const WorkloadResult& r, const std::string& name) {
  for (const MetricValue& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return NAN;
}

/// Every workload in its own child, one at a time: the untraced pass, then
/// (--trace 1) the traced pass.
int run_all(const Options& o) {
  print_header(o);
  std::vector<WorkloadResult> results;
  std::vector<std::string> span_parts;
  for (const bool traced : {false, true}) {
    if (traced && !o.trace) break;
    for (const std::string& name : workload_names()) {
      std::vector<std::string> args = {
          "--workload", name, "--seed", std::to_string(o.seed),
          "--seconds", std::to_string(o.seconds), "--trace", traced ? "1" : "0"};
      if (traced && !o.spans.empty()) {
        span_parts.push_back(o.spans + '.' + name + ".part");
        args.insert(args.end(), {"--spans", span_parts.back()});
      }
      WorkloadResult r;
      r.workload = name;
      r.traced = traced;
      const int rc = spawn_self(args, 1, false, [&](const std::string& line) {
        if (line.empty() || line[0] != '{') std::cout << line << '\n';
        parse_child_line(line, r);
      });
      if (rc != 0) {
        std::cerr << "vecfd_bench: workload " << name << " failed (exit "
                  << rc << ")\n";
        return 1;
      }
      if (traced) {
        for (const WorkloadResult& u : results) {
          if (u.workload != r.workload) continue;
          const double untraced = metric_of(u, "run_s");
          const double with_spans = metric_of(r, "bench.traced_run_s");
          std::cout << "# tracing overhead " << r.workload << ": "
                    << num(100.0 * (with_spans / untraced - 1.0), 3)
                    << "% (traced run " << num(with_spans, 4)
                    << " s vs untraced run_s median " << num(untraced, 4)
                    << " s)\n";
        }
      }
      results.push_back(std::move(r));
    }
  }
  if (!o.spans.empty() && o.trace) {
    std::ofstream os(o.spans);
    os << "[\n";
    bool first = true;
    for (const std::string& part : span_parts) {
      std::ifstream in(part);
      for (std::string line; std::getline(in, line);) {
        if (line == "[" || line == "]") continue;
        if (!line.empty() && line.back() == ',') line.pop_back();
        os << (first ? "" : ",\n") << line;
        first = false;
      }
      fs::remove(part);
    }
    os << "\n]\n";
  }
  if (!o.out.empty()) write_out(o.out, o, results);
  return 0;
}

// ---- self-check -----------------------------------------------------------------

/// The objects of the array under "@p key" in @p json, each as key → raw
/// value (strings unquoted).  Enough for BENCHMARK.json, whose arrays hold
/// flat objects.
std::vector<std::map<std::string, std::string>> json_objects(
    const std::string& json, const std::string& key) {
  std::vector<std::map<std::string, std::string>> out;
  const std::size_t k = json.find('"' + key + '"');
  if (k == std::string::npos) return out;
  const std::size_t open = json.find('[', k);
  const std::size_t close = json.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return out;
  const std::string body = json.substr(open, close - open);
  static const std::regex object(R"(\{([^{}]*)\})");
  static const std::regex field(R"re("([^"]+)"\s*:\s*("([^"]*)"|[^,\s}]+))re");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), object);
       it != std::sregex_iterator(); ++it) {
    std::map<std::string, std::string> obj;
    const std::string inner = (*it)[1];
    for (auto f = std::sregex_iterator(inner.begin(), inner.end(), field);
         f != std::sregex_iterator(); ++f) {
      obj[(*f)[1]] = (*f)[3].matched ? (*f)[3].str() : (*f)[2].str();
    }
    out.push_back(std::move(obj));
  }
  return out;
}

int self_check() {
  int problems = 0;
  auto problem = [&](const std::string& what) {
    std::cerr << "vecfd_bench --self-check: " << what << '\n';
    ++problems;
  };
  std::ifstream in("BENCHMARK.json");
  if (!in) {
    problem("cannot read BENCHMARK.json in the current directory");
    return 1;
  }
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();

  static const std::regex name_re("[A-Za-z0-9_.-]+");
  int metrics = 0;
  const std::pair<const char*, const std::vector<MetricDef>*> sections[] = {
      {"end_to_end", &end_to_end_metrics()},
      {"per_layer", &per_layer_metrics()}};
  for (const auto& [section, table] : sections) {
    const auto objs = json_objects(json, section);
    for (const MetricDef& d : *table) {
      ++metrics;
      if (!std::regex_match(d.name, name_re)) {
        problem(std::string(section) + ": bad metric name '" + d.name + "'");
      }
      const auto it = std::find_if(objs.begin(), objs.end(), [&](const auto& ob) {
        return ob.count("name") && ob.at("name") == d.name;
      });
      if (it == objs.end()) {
        problem(std::string(section) + ": '" + d.name +
                "' is emitted but missing from BENCHMARK.json");
      } else if (it->count("unit") == 0 || it->at("unit") != d.unit ||
                 it->count("better") == 0 ||
                 it->at("better") != to_string(d.better)) {
        problem(std::string(section) + ": '" + d.name +
                "' has another unit or direction in BENCHMARK.json");
      }
    }
    for (const auto& ob : objs) {
      const std::string name = ob.count("name") ? ob.at("name") : "";
      const bool known = std::any_of(table->begin(), table->end(),
                                     [&](const MetricDef& d) { return d.name == name; });
      if (!known) {
        problem(std::string(section) + ": '" + name +
                "' is in BENCHMARK.json but never emitted");
      }
    }
  }
  const auto workloads = json_objects(json, "workloads");
  std::vector<std::string> names;
  for (const auto& ob : workloads) names.push_back(ob.count("name") ? ob.at("name") : "");
  const std::vector<std::string>& ours = workload_names();
  if (names != ours) problem("workloads differ from BENCHMARK.json");

  // The command-line contract: each case exits 2 and names its flag.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"--bogus"}, "--bogus"},
      {{"--seed"}, "--seed"},
      {{"--seed", "abc"}, "--seed"},
      {{"--seed", "-3"}, "--seed"},
      {{"--seed", "1.5"}, "--seed"},
      {{"--seconds", "0"}, "--seconds"},
      {{"--trace", "2"}, "--trace"},
      {{"--workload"}, "--workload"},
      {{"--workload", "nope"}, "--workload"},
  };
  for (const auto& [args, flag] : cases) {
    std::string err;
    const int rc = spawn_self(args, 2, true, [&](const std::string& line) {
      err += line + '\n';
    });
    if (rc != 2 || err.find(flag) == std::string::npos) {
      std::string cmd;
      for (const std::string& a : args) cmd += ' ' + a;
      problem("'vecfd_bench" + cmd + "' exited " + std::to_string(rc) +
              " (want 2 naming " + flag + ")");
    }
  }
  if (problems > 0) return 1;
  std::cout << "self-check: ok (" << metrics << " metrics, " << ours.size()
            << " workloads, " << cases.size() << " CLI cases)\n";
  return 0;
}

}  // namespace
}  // namespace vecfd::bench

int main(int argc, char** argv) {
  using namespace vecfd::bench;
  if (const char* why = build_unfit()) {
    std::cerr << "vecfd_bench: refusing to measure: " << why
              << " (host times from such a build are meaningless)\n";
    return 2;
  }
  Options o;
  if (!parse_args(argc, argv, o)) return 2;
  try {
    if (o.self_check) return self_check();
    if (o.workload.empty()) return run_all(o);
    return run_one(o);
  } catch (const std::exception& e) {
    std::cerr << "vecfd_bench: " << e.what() << '\n';
    return 1;
  }
}
