// The prany benchmark binary: runs one workload and prints, as its last line,
// {"correct", "attempted", "failed", "metrics"}. Without --trace the
// metrics are the end-to-end ones; with --trace, the per-layer ones, and
// the spans of the run are written to <work-dir>/trace-<workload>.csv.
//
//   perfbench --workload inproc-saturated|uds-serial|mc-explore
//             --seed N --seconds S --trace 0|1 --work-dir DIR [--small]
//
// See README.md in this directory for what each workload and metric is.

#include <dirent.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"

namespace perfbench {

double PeakRssMb() {
  // VmHWM, not ru_maxrss: the latter keeps the high-water mark of the
  // parent that forked this process across exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

int ThreadCount() {
  int n = 0;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (struct dirent* e = readdir(dir)) {
      if (e->d_name[0] != '.') ++n;
    }
    closedir(dir);
  }
  return n;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double BestQuartileMean(std::vector<double> values, bool higher_is_better) {
  if (values.empty()) return 0.0;
  double cut = Percentile(values, higher_is_better ? 0.75 : 0.25);
  double sum = 0.0;
  int n = 0;
  for (double v : values) {
    if (higher_is_better ? v >= cut : v <= cut) {
      sum += v;
      ++n;
    }
  }
  return sum / n;
}

double Samples::Get(const std::string& name, bool higher_is_better) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0
                             : BestQuartileMean(it->second, higher_is_better);
}

void Tracer::Merge(std::vector<Span>* spans) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans->begin(), spans->end());
  spans->clear();
}

bool Tracer::Write(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,parent,txn,start_ns,end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%s,%llu,%lld,%lld\n", s.name, s.parent,
                 static_cast<unsigned long long>(s.txn),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better = false;
};

// Must match BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"decided_per_s", "txn/s", true},       {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},         {"cpu_us_per_txn", "us"},
    {"restart_ms", "ms"},             {"verify_ms", "ms"},
    {"mc_executions_per_s", "executions/s", true},
    {"peak_rss_mb", "MB"},            {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"runtime.submit_us_p50", "us"},
    {"runtime.cpu_load_threads_us_per_txn", "us"},
    {"runtime.cpu_program_us_per_txn", "us"},
    {"runtime.threads", "count"},
    {"runtime.quiesce_ms", "ms"},
    {"protocol.admit_us_p50", "us"},
    {"protocol.admit_us_p99", "us"},
    {"protocol.prepare_us_p50", "us"},
    {"protocol.prepare_us_p99", "us"},
    {"protocol.decide_us_p50", "us"},
    {"protocol.decide_us_p99", "us"},
    {"protocol.enforce_us_p50", "us"},
    {"protocol.enforce_us_p99", "us"},
    {"protocol.forget_us_p50", "us"},
    {"protocol.forget_us_p99", "us"},
    {"wal.forced_per_txn", "count"},
    {"wal.fsyncs_per_txn", "count"},
    {"wal.forces_per_fsync", "count", true},
    {"wal.window_us_mean", "us"},
    {"wal.bytes_per_txn", "bytes"},
    {"wal.records_recovered", "count"},
    {"wal.open_ms", "ms"},
    {"net.messages_per_txn", "count"},
    {"net.bytes_per_txn", "bytes"},
    {"net.pool_hit_rate", "ratio", true},
    {"net.frames_dropped", "count"},
    {"net.connects", "count"},
    {"history.atomicity_ms", "ms"},
    {"history.safe_state_ms", "ms"},
    {"history.operational_ms", "ms"},
    {"history.events_per_txn", "count"},
    {"mc.executions", "count"},
    {"mc.choice_points_per_execution", "count"},
    {"mc.pruned_ratio", "ratio", true},
    {"mc.minimization_runs", "count"},
    {"mc.run_schedule_us_p50", "us"},
    {"memory.rss_after_setup_mb", "MB"},
    {"memory.rss_growth_kb_per_txn", "KB"},
};

int Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "inproc-saturated|uds-serial|mc-explore --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--small]\n",
               problem);
  return 2;
}

void PrintResult(const Result& res, bool trace) {
  std::string out = "{\"correct\": ";
  out += res.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m, double value) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, std::isfinite(value) ? value : 0.0,
                  m.unit);
    out += buf;
    first = false;
  };
  if (trace) {
    for (const MetricDef& m : kPerLayer) {
      emit(m, res.samples.Get(m.name, m.higher_is_better));
    }
  } else {
    for (const MetricDef& m : kEndToEnd) {
      if (std::strcmp(m.name, "setup_s") == 0) {
        emit(m, res.setup_s);
      } else if (std::strcmp(m.name, "peak_rss_mb") == 0) {
        emit(m, PeakRssMb());
      } else {
        emit(m, res.samples.Get(m.name, m.higher_is_better));
      }
    }
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  opts.start_ns = NowNs();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--small") {
      opts.small = true;
      continue;
    }
    if ((v = value()) == nullptr) return Usage(("missing value for " + arg).c_str());
    if (arg == "--workload") {
      opts.workload = v;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--work-dir") {
      opts.work_dir = v;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (opts.work_dir.empty()) return Usage("--work-dir is required");
  if (!(opts.seconds > 0.0)) return Usage("--seconds must be positive");

  Tracer tracer(opts.trace);
  Result res;
  if (opts.workload == "inproc-saturated") {
    res = RunInprocSaturated(opts, &tracer);
  } else if (opts.workload == "uds-serial") {
    res = RunUdsSerial(opts, &tracer);
  } else if (opts.workload == "mc-explore") {
    res = RunMcExplore(opts, &tracer);
  } else {
    return Usage(("unknown workload '" + opts.workload + "'").c_str());
  }
  for (const std::string& problem : res.problems) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  std::fprintf(stderr, "%s: %d rounds\n", opts.workload.c_str(), res.rounds);
  // Each end-to-end figure round by round, to show a run's own spread.
  for (const MetricDef& m : kEndToEnd) {
    const std::vector<double>* rounds = res.samples.Rounds(m.name);
    if (rounds == nullptr) continue;
    std::fprintf(stderr, "  %-20s", m.name);
    for (double v : *rounds) std::fprintf(stderr, " %.4g", v);
    std::fprintf(stderr, "\n");
  }
  if (tracer.enabled()) {
    std::string path = opts.work_dir + "/trace-" + opts.workload + ".csv";
    if (!tracer.Write(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "%zu spans written to %s\n", tracer.size(),
                 path.c_str());
  }
  std::fflush(stderr);
  PrintResult(res, opts.trace);
  return 0;
}
