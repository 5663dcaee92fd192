// Shared pieces of the prany benchmark: options, clocks, sample
// aggregation, the in-memory span recorder and /proc readers.
//
// Each workload runs whole rounds of a fixed size until --seconds of
// rounds have elapsed. Every figure is collected once per round and
// reported as the mean of the run's best quartile of rounds (the highest
// quarter for a rate, the lowest for a time or a cost). The hosts this
// runs on are shared: the same fixed work takes up to 40% longer from
// one second to the next, and the best rounds of a run, the ones least
// disturbed by other tenants, repeat far better between runs than its
// median round does.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;        ///< Tiny rounds, one of each, all checks on.
  std::string work_dir;      ///< Scratch for WALs, sockets and the trace.
  int64_t start_ns = 0;      ///< Process start (steady clock), for setup_s.
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double CpuSeconds(int who) {
  struct rusage ru;
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident set of the process image, MB.
double PeakRssMb();
/// Current resident set of the process, MB.
double RssMb();
/// Threads alive in the process.
int ThreadCount();

/// Linear-interpolated percentile (q in [0,1]) of unsorted values.
double Percentile(std::vector<double> values, double q);

/// Mean of the best quartile of `values`: those at or above the third
/// quartile when `higher_is_better`, else at or below the first.
double BestQuartileMean(std::vector<double> values, bool higher_is_better);

/// Per-round figures by metric name.
class Samples {
 public:
  void Add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  /// BestQuartileMean of the rounds' values; 0 when none were recorded.
  double Get(const std::string& name, bool higher_is_better) const;
  const std::vector<double>* Rounds(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// One span of the traced run. Spans of one transaction share `txn`;
/// `parent` names the span that caused this one.
struct Span {
  const char* name = "";
  const char* parent = "";
  uint64_t txn = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Keeps spans in memory and writes them out once, at the end of the
/// run. Hot threads fill their own vectors and hand them over with Merge.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void Record(const Span& span) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  void Merge(std::vector<Span>* spans);
  /// Writes "name,parent,txn,start_ns,end_ns" lines; returns false on
  /// I/O failure.
  bool Write(const std::string& path);
  size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times `fn` into a span of `tracer` (when enabled) and returns the
/// elapsed milliseconds.
template <typename Fn>
double TimedMs(Tracer* tracer, const char* name, Fn&& fn) {
  int64_t t0 = NowNs();
  fn();
  int64_t t1 = NowNs();
  tracer->Record(Span{name, "round", 0, t0, t1});
  return 1e-6 * static_cast<double>(t1 - t0);
}

/// What a workload hands back to main.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  ///< First few check failures.
  Samples samples;
  double setup_s = 0.0;
  int rounds = 0;

  void Fail(const std::string& problem) {
    correct = false;
    if (problems.size() < 8) problems.push_back(problem);
  }
};

/// Forced appends and messages the paper's rules (Figures 1-4) predict
/// for one fault-free transaction under a PrAny coordinator.
struct Cost {
  uint64_t forced = 0;
  uint64_t messages = 0;
};
Cost PredictPrAny(const std::vector<prany::ProtocolKind>& protocols,
                  const std::vector<prany::Vote>& votes);

Result RunInprocSaturated(const Options& opts, Tracer* tracer);
Result RunUdsSerial(const Options& opts, Tracer* tracer);
Result RunMcExplore(const Options& opts, Tracer* tracer);

/// Model-checks the PrAny configuration a live workload ran (clean
/// expected) and records the mc.* figures and mc_executions_per_s.
void ModelCheckLiveConfig(const Options& opts, Tracer* tracer,
                          Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
