// Metric tables, summaries and spans of vecfd_bench.
#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "miniapp/driver.h"

namespace vecfd::bench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> table = {
      {"setup_s", "s", Better::kLower},
      {"run_s", "s", Better::kLower},
      {"sim_minstr_per_s", "Minstr/s", Better::kHigher},
      {"peak_rss_mb", "MiB", Better::kLower},
      {"modelled_cycles", "cycles", Better::kLower},
      {"critical_path_cycles", "cycles", Better::kLower},
  };
  return table;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> table = [] {
    std::vector<MetricDef> t = {
        {"fem.mesh_s", "s", Better::kLower},
        {"fem.operators_s", "s", Better::kLower},
        {"miniapp.timeloop_setup_s", "s", Better::kLower},
        {"miniapp.assembly_s", "s", Better::kLower},
        {"miniapp.assembly_cycles", "cycles", Better::kLower},
        {"miniapp.ckpt_save_s", "s", Better::kLower},
        {"miniapp.ckpt_load_s", "s", Better::kLower},
        {"miniapp.ckpt_mb", "MiB", Better::kLower},
        {"solver.pressure_s", "s", Better::kLower},
        {"solver.pressure_iters", "iters", Better::kLower},
        {"solver.pressure_cycles", "cycles", Better::kLower},
        {"solver.momentum_s", "s", Better::kLower},
        {"solver.momentum_iters", "iters", Better::kLower},
        {"solver.sharded_s", "s", Better::kLower},
        {"solver.makespan_cycles", "cycles", Better::kLower},
        {"solver.halo_lines", "lines", Better::kLower},
        {"solver.halo_messages", "count", Better::kLower},
        {"sim.instrs", "count", Better::kLower},
        {"sim.avl", "elements", Better::kHigher},
        {"sim.spmv_ns_per_instr", "ns/instr", Better::kLower},
        {"sim.speedup_vs_scalar", "x", Better::kHigher},
        {"sim.paper_err", "fraction", Better::kLower},
        {"mem.ns_per_line", "ns/line", Better::kLower},
        {"mem.l1_miss_rate", "fraction", Better::kLower},
        {"mem.l2_miss_rate", "fraction", Better::kLower},
        {"core.attempts", "count", Better::kLower},
        {"core.degraded", "count", Better::kLower},
        {"core.fanout_eff", "fraction", Better::kHigher},
        {"core.csv_s", "s", Better::kLower},
        {"core.csv_kb", "KiB", Better::kLower},
        {"bench.traced_run_s", "s", Better::kLower},
    };
    for (int p = 1; p <= miniapp::kNumInstrumentedPhases; ++p) {
      t.push_back({"sim.phase" + std::to_string(p) + "_cycles", "cycles",
                   Better::kLower});
    }
    return t;
  }();
  return table;
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = static_cast<int>(v.size());
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  if (n == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  // statistics.quantiles(v, n=4, method="exclusive")
  const auto quartile = [&](int i) {
    const std::ptrdiff_t m = static_cast<std::ptrdiff_t>(n) + 1;
    std::ptrdiff_t j = i * m / 4;
    j = std::clamp<std::ptrdiff_t>(j, 1, static_cast<std::ptrdiff_t>(n) - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    return (v[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
            v[static_cast<std::size_t>(j)] * delta) /
           4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

const MetricDef& MetricSink::def(const std::string& name) const {
  for (const MetricDef& d : *table_) {
    if (d.name == name) return d;
  }
  throw std::logic_error("metric '" + name + "' is not in the metric table");
}

void MetricSink::put(const std::string& name, double value) {
  values_.push_back({name, def(name).unit, value, Summary{}});
}

void MetricSink::put(const std::string& name, const Summary& host) {
  values_.push_back({name, def(name).unit, host.median, host});
}

std::vector<std::string> MetricSink::missing() const {
  std::vector<std::string> out;
  for (const MetricDef& d : *table_) {
    const bool found = std::any_of(
        values_.begin(), values_.end(),
        [&](const MetricValue& v) { return v.name == d.name; });
    if (!found) out.push_back(d.name);
  }
  return out;
}

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

int SpanRecorder::open(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns > 0) out.push_back(s.seconds());
  }
  return out;
}

void SpanRecorder::write_json(const std::string& path,
                              const std::string& workload) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::ofstream os(path);
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string parent =
        s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name : "";
    os << "  {\"workload\": \"" << workload << "\", \"id\": " << i
       << ", \"name\": \"" << s.name << "\", \"parent\": " << s.parent
       << ", \"parent_name\": \"" << parent << "\", \"start_ns\": "
       << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"self_ns\": " << (s.end_ns - s.start_ns - child_ns[i]) << '}'
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
  if (!os) throw std::runtime_error("cannot write spans to '" + path + "'");
}

}  // namespace vecfd::bench
