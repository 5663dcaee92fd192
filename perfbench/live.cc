// The two live-runtime workloads.
//
// inproc-saturated: one LiveSystem of four sites (participants PrN, PrA,
// PrC, PrN; PrAny coordinators everywhere) on the in-memory transport.
// Four load threads keep 16 transactions each in flight. Every round
// runs the twelve (coordinator, participant pair) combinations the same
// number of times in a seed-shuffled order, so each site's WAL holds the
// same records when site 0 is crashed and restarted at the end.
//
// uds-serial: three single-site LiveSystems in this process wired over
// Unix-domain sockets (participants PrN, PrA, PrC). Each node's load
// thread keeps one transaction in flight; one in ten carries a planned
// no-vote and one in ten a read-only vote.
//
// Both check what the benchmark itself planned: the outcome of every
// transaction, the forced appends and messages the paper's logging rules
// predict, and the program's own history checkers.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "core/safe_state.h"
#include "history/atomicity_checker.h"
#include "history/operational_checker.h"
#include "runtime/live_system.h"
#include "wal/file_stable_log.h"

namespace perfbench {
namespace {

using prany::Outcome;
using prany::ProtocolKind;
using prany::SigEvent;
using prany::SigEventType;
using prany::SiteId;
using prany::TxnId;
using prany::Vote;
using prany::runtime::LiveSystem;
using prany::runtime::LiveSystemConfig;

constexpr uint64_t kAwaitTimeoutUs = 30'000'000;
constexpr uint64_t kQuiesceTimeoutUs = 30'000'000;

// ---------------------------------------------------------------------------
// The paper's per-protocol logging and messaging rules (Figures 1-4),
// written out here rather than read from the program.

/// Participant rules: whether a protocol force-writes, and acknowledges,
/// a decision with `outcome` (PrA presumes abort, PrC presumes commit).
bool RuleForcesDecision(ProtocolKind p, bool commit) {
  if (p == ProtocolKind::kPrA) return commit;
  if (p == ProtocolKind::kPrC) return !commit;
  return true;
}
bool RuleAcks(ProtocolKind p, bool commit) {
  return RuleForcesDecision(p, commit);
}

// ---------------------------------------------------------------------------
// Load generation

struct Plan {
  SiteId coordinator = 0;
  std::vector<SiteId> participants;
  std::vector<Vote> votes;  ///< Parallel to participants.
  bool ExpectCommit() const {
    return std::none_of(votes.begin(), votes.end(),
                        [](Vote v) { return v == Vote::kNo; });
  }
};

/// What a load thread observed for one planned transaction.
struct TxnRun {
  TxnId id = 0;
  int64_t stamp_us = 0;  ///< Coordinator's loop().Now() at submission.
  int64_t submit_ns = 0;
  int64_t submitted_ns = 0;
  bool accepted = false;
  std::optional<Outcome> outcome;
};

struct LoadThreadOut {
  double cpu_s = 0.0;
  std::vector<Span> spans;
};

/// Closed-loop load thread: keeps up to `window` of its transactions
/// outstanding, waiting on the oldest before submitting the next.
void DriveLoad(LiveSystem* system, const std::vector<Plan>& plan,
               const std::vector<size_t>& mine, size_t window, bool trace,
               std::vector<TxnRun>* runs, LoadThreadOut* out) {
  std::deque<size_t> inflight;
  auto await_oldest = [&]() {
    TxnRun& r = (*runs)[inflight.front()];
    inflight.pop_front();
    if (!r.accepted) return;
    int64_t t0 = NowNs();
    r.outcome = system->Await(r.id, kAwaitTimeoutUs);
    if (trace) out->spans.push_back(Span{"await", "txn", r.id, t0, NowNs()});
  };
  for (size_t i : mine) {
    if (inflight.size() >= window) await_oldest();
    const Plan& p = plan[i];
    std::map<SiteId, Vote> votes;
    for (size_t k = 0; k < p.participants.size(); ++k) {
      if (p.votes[k] != Vote::kYes) votes[p.participants[k]] = p.votes[k];
    }
    TxnRun& r = (*runs)[i];
    r.stamp_us = static_cast<int64_t>(system->loop().Now());
    r.submit_ns = NowNs();
    prany::Transaction txn =
        system->MakeTransaction(p.coordinator, p.participants, votes);
    r.accepted = system->SubmitTransaction(txn);
    r.submitted_ns = NowNs();
    r.id = txn.id;
    if (trace) {
      out->spans.push_back(
          Span{"submit", "txn", txn.id, r.submit_ns, r.submitted_ns});
    }
    inflight.push_back(i);
  }
  while (!inflight.empty()) await_oldest();
  out->cpu_s = CpuSeconds(RUSAGE_THREAD);
}

/// Per-transaction event times from the history, on one reference clock.
struct Phases {
  int64_t submitted = -1;
  int64_t prepared = -1;  ///< Last kPartPrepared.
  int64_t decided = -1;
  int64_t enforced = -1;  ///< Last kPartEnforce.
  int64_t forgotten = -1;  ///< kCoordForget.
  std::optional<Outcome> outcome;
};
using PhaseMap = std::unordered_map<TxnId, Phases>;

/// Folds `history` into `phases`; `offset_us` converts its clock to the
/// reference clock (reference = local - offset).
void AddPhases(const prany::EventLog& history, int64_t offset_us,
               PhaseMap* phases) {
  for (const SigEvent& e : history.events()) {
    if (e.txn == prany::kInvalidTxn) continue;
    int64_t t = static_cast<int64_t>(e.time) - offset_us;
    Phases& p = (*phases)[e.txn];
    switch (e.type) {
      case SigEventType::kTxnSubmitted:
        p.submitted = t;
        break;
      case SigEventType::kPartPrepared:
        p.prepared = std::max(p.prepared, t);
        break;
      case SigEventType::kCoordDecide:
        p.decided = t;
        p.outcome = e.outcome;
        break;
      case SigEventType::kPartEnforce:
        p.enforced = std::max(p.enforced, t);
        break;
      case SigEventType::kCoordForget:
        p.forgotten = t;
        break;
      default:
        break;
    }
  }
}

/// Where the clocks of a LiveSystem's loop and the steady clock meet:
/// steady_ns = loop_us * 1000 + offset.
int64_t LoopToSteadyNs(LiveSystem* system) {
  int64_t a = NowNs();
  int64_t loop_us = static_cast<int64_t>(system->loop().Now());
  int64_t b = NowNs();
  return (a + b) / 2 - loop_us * 1000;
}

/// Checks outcomes against the plan and records the latency, phase and
/// per-transaction figures of one round. Returns the decided count.
uint64_t FoldRound(const std::vector<Plan>& plan,
                   const std::vector<TxnRun>& runs, const PhaseMap& phases,
                   int64_t loop_to_steady_ns, Tracer* tracer, Result* res) {
  std::vector<double> latency, submit_us, admit, prepare, decide, enforce,
      forget;
  uint64_t decided = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    const TxnRun& r = runs[i];
    ++res->attempted;
    if (!r.accepted || !r.outcome.has_value()) {
      ++res->failed;
      res->Fail("transaction " + std::to_string(r.id) +
                (r.accepted ? " not decided in time" : " refused"));
      continue;
    }
    ++decided;
    bool commit = *r.outcome == Outcome::kCommit;
    if (commit != plan[i].ExpectCommit()) {
      res->Fail("transaction " + std::to_string(r.id) +
                " outcome disagrees with its planned votes");
    }
    auto it = phases.find(r.id);
    if (it == phases.end() || it->second.decided < 0 ||
        it->second.outcome != r.outcome) {
      res->Fail("transaction " + std::to_string(r.id) +
                " has no matching decision in the history");
      continue;
    }
    const Phases& p = it->second;
    latency.push_back(static_cast<double>(p.decided - r.stamp_us));
    submit_us.push_back(1e-3 * static_cast<double>(r.submitted_ns - r.submit_ns));
    if (p.submitted >= 0) admit.push_back(static_cast<double>(p.submitted - r.stamp_us));
    if (p.prepared >= 0) prepare.push_back(static_cast<double>(p.prepared - r.stamp_us));
    decide.push_back(static_cast<double>(p.decided - r.stamp_us));
    if (p.enforced >= 0) enforce.push_back(static_cast<double>(p.enforced - r.stamp_us));
    if (p.forgotten >= 0) forget.push_back(static_cast<double>(p.forgotten - r.stamp_us));
    if (tracer->enabled()) {
      // The transaction's phases as consecutive spans under one root.
      auto ns = [&](int64_t us) { return us * 1000 + loop_to_steady_ns; };
      int64_t end = std::max({p.decided, p.enforced, p.forgotten});
      tracer->Record(Span{"txn", "round", r.id, ns(r.stamp_us), ns(end)});
      int64_t from = r.stamp_us;
      const std::pair<const char*, int64_t> marks[] = {
          {"admit", p.submitted}, {"prepare", p.prepared},
          {"decide", p.decided},  {"enforce", p.enforced},
          {"forget", p.forgotten}};
      for (const auto& [name, at] : marks) {
        if (at < from) continue;
        tracer->Record(Span{name, "txn", r.id, ns(from), ns(at)});
        from = at;
      }
    }
  }
  Samples& s = res->samples;
  if (!latency.empty()) {
    s.Add("latency_p50_us", Percentile(latency, 0.50));
    s.Add("latency_p99_us", Percentile(latency, 0.99));
    s.Add("runtime.submit_us_p50", Percentile(submit_us, 0.50));
  }
  auto phase = [&](const char* name, const std::vector<double>& v) {
    if (v.empty()) return;
    s.Add(std::string("protocol.") + name + "_us_p50", Percentile(v, 0.50));
    s.Add(std::string("protocol.") + name + "_us_p99", Percentile(v, 0.99));
  };
  phase("admit", admit);
  phase("prepare", prepare);
  phase("decide", decide);
  phase("enforce", enforce);
  phase("forget", forget);
  return decided;
}

void CheckCosts(const std::vector<Plan>& plan,
                const std::map<SiteId, ProtocolKind>& protocol_of,
                uint64_t forced, uint64_t messages, Result* res) {
  Cost want;
  for (const Plan& p : plan) {
    std::vector<ProtocolKind> protocols;
    for (SiteId s : p.participants) protocols.push_back(protocol_of.at(s));
    Cost c = PredictPrAny(protocols, p.votes);
    want.forced += c.forced;
    want.messages += c.messages;
  }
  if (forced != want.forced) {
    res->Fail("forced appends " + std::to_string(forced) +
              " != predicted " + std::to_string(want.forced));
  }
  if (messages != want.messages) {
    res->Fail("messages sent " + std::to_string(messages) +
              " != predicted " + std::to_string(want.messages));
  }
}

/// From the last decision to the moment Quiesce returned.
double QuiesceMs(const PhaseMap& phases, int64_t quiesced_us) {
  int64_t last = 0;
  for (const auto& [txn, p] : phases) last = std::max(last, p.decided);
  return 1e-3 * static_cast<double>(quiesced_us - last);
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

/// Times a fresh FileStableLog::Open() over a copy of `wal_path`.
void TimeWalOpen(const std::string& wal_path, const std::string& copy_path,
                 Tracer* tracer, Result* res) {
  {
    std::ifstream in(wal_path, std::ios::binary);
    std::ofstream out(copy_path, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
  }
  prany::FileStableLog log(copy_path);
  prany::Status opened;
  double ms = TimedMs(tracer, "wal.open", [&]() { opened = log.Open(); });
  if (!opened.ok()) res->Fail("reopening a WAL copy: " + opened.ToString());
  res->samples.Add("wal.open_ms", ms);
  log.Close();
  unlink(copy_path.c_str());
}

/// Crashes `site` of `system`, restarts it, and waits for the first
/// transaction it coordinates afterwards (with `participants`, all yes).
void CrashAndServe(LiveSystem* system, SiteId site,
                   const std::vector<SiteId>& participants, Tracer* tracer,
                   Result* res) {
  prany::WalRecoveryInfo info;
  std::optional<Outcome> outcome;
  ++res->attempted;
  double ms = TimedMs(tracer, "restart", [&]() {
    info = system->CrashRestartSite(site, /*downtime_us=*/0);
    TxnId txn = system->Submit(site, participants);
    outcome = system->Await(txn, kAwaitTimeoutUs);
  });
  res->samples.Add("restart_ms", ms);
  res->samples.Add("wal.records_recovered",
                   static_cast<double>(info.records_recovered));
  if (info.records_recovered == 0) res->Fail("restart recovered no records");
  if (outcome != Outcome::kCommit) {
    ++res->failed;
    res->Fail("restarted site did not commit its first transaction");
  }
}

/// Runs and times the program's three checkers over `history`.
void Verify(const prany::EventLog& history,
            const std::vector<prany::SiteEndState>& end_states,
            Tracer* tracer, Result* res) {
  prany::AtomicityReport atomic;
  prany::SafeStateReport safe;
  prany::OperationalReport operational;
  double a = TimedMs(tracer, "check.atomicity", [&]() {
    atomic = prany::AtomicityChecker::Check(history);
  });
  double s = TimedMs(tracer, "check.safe_state", [&]() {
    safe = prany::SafeStateChecker::Check(history);
  });
  double o = TimedMs(tracer, "check.operational", [&]() {
    operational = prany::OperationalChecker::Check(history, end_states);
  });
  if (!atomic.ok()) res->Fail("atomicity: " + atomic.violations[0].description);
  if (!safe.ok()) res->Fail("safe state: " + safe.violations[0].description);
  if (!operational.ok()) {
    res->Fail("operational: " + (operational.problems.empty()
                                     ? std::string("atomicity")
                                     : operational.problems[0]));
  }
  res->samples.Add("history.atomicity_ms", a);
  res->samples.Add("history.safe_state_ms", s);
  res->samples.Add("history.operational_ms", o);
  res->samples.Add("verify_ms", a + s + o);
}

LiveSystemConfig BaseConfig(const std::string& log_dir) {
  LiveSystemConfig config;
  config.log_dir = log_dir;
  // The long timeouts bench_throughput uses, so that queueing under load
  // never takes the vote-timeout or resend path in a fault-free run.
  config.timing.vote_timeout = 10'000'000;
  config.timing.decision_resend_interval = 2'000'000;
  config.timing.inquiry_interval = 2'000'000;
  return config;
}

std::mt19937_64 RoundRng(const Options& opts, int round) {
  return std::mt19937_64(opts.seed * 0x9e3779b97f4a7c15ull +
                         static_cast<uint64_t>(round));
}

/// Starts `threads` load threads over `plan` (transaction i goes to
/// thread i % threads), optionally counts the process's threads while
/// they run, and joins them. Returns the load window in seconds.
double RunLoad(const std::vector<LiveSystem*>& systems,
               const std::vector<Plan>& plan, size_t threads, size_t window,
               bool trace, std::vector<TxnRun>* runs,
               std::vector<LoadThreadOut>* outs, int* threads_seen) {
  std::vector<std::vector<size_t>> mine(threads);
  for (size_t i = 0; i < plan.size(); ++i) mine[i % threads].push_back(i);
  outs->assign(threads, LoadThreadOut{});
  int64_t t0 = NowNs();
  std::vector<std::thread> loaders;
  for (size_t t = 0; t < threads; ++t) {
    loaders.emplace_back([&, t]() {
      DriveLoad(systems[t % systems.size()], plan, mine[t], window, trace,
                runs, &(*outs)[t]);
    });
  }
  if (threads_seen != nullptr) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    *threads_seen = ThreadCount();
  }
  for (std::thread& t : loaders) t.join();
  return 1e-9 * static_cast<double>(NowNs() - t0);
}

void RecordCpu(double load_s, double cpu_s,
               const std::vector<LoadThreadOut>& outs, int threads_seen,
               uint64_t decided, Result* res) {
  Samples& s = res->samples;
  double n = static_cast<double>(std::max<uint64_t>(decided, 1));
  s.Add("decided_per_s", static_cast<double>(decided) / load_s);
  s.Add("cpu_us_per_txn", 1e6 * cpu_s / n);
  double load_cpu = 0.0;
  for (const LoadThreadOut& o : outs) load_cpu += o.cpu_s;
  s.Add("runtime.cpu_load_threads_us_per_txn", 1e6 * load_cpu / n);
  s.Add("runtime.cpu_program_us_per_txn", 1e6 * (cpu_s - load_cpu) / n);
  if (threads_seen > 0) {
    // Less the load threads and the main thread.
    s.Add("runtime.threads",
          static_cast<double>(threads_seen - static_cast<int>(outs.size()) - 1));
  }
}

// ---------------------------------------------------------------------------
// inproc-saturated

constexpr ProtocolKind kInprocProtocols[] = {
    ProtocolKind::kPrN, ProtocolKind::kPrA, ProtocolKind::kPrC,
    ProtocolKind::kPrN};
constexpr SiteId kInprocSites = 4;
constexpr size_t kInprocThreads = 4;
constexpr size_t kInprocWindowPerThread = 16;

std::vector<Plan> InprocPlan(size_t repeats, std::mt19937_64* rng) {
  std::vector<Plan> plan;
  for (size_t r = 0; r < repeats; ++r) {
    for (SiteId c = 0; c < kInprocSites; ++c) {
      std::vector<SiteId> others;
      for (SiteId s = 0; s < kInprocSites; ++s) {
        if (s != c) others.push_back(s);
      }
      for (size_t a = 0; a < others.size(); ++a) {
        for (size_t b = a + 1; b < others.size(); ++b) {
          plan.push_back(Plan{c, {others[a], others[b]}, {Vote::kYes, Vote::kYes}});
        }
      }
    }
  }
  std::shuffle(plan.begin(), plan.end(), *rng);
  return plan;
}

void InprocRound(const Options& opts, Tracer* tracer, int round,
                 size_t repeats, Result* res) {
  const std::string& dir = opts.work_dir;
  int64_t round_t0 = NowNs();
  std::unique_ptr<LiveSystem> system;
  TimedMs(tracer, "setup", [&]() {
    system = std::make_unique<LiveSystem>(BaseConfig(dir));
    for (SiteId i = 0; i < kInprocSites; ++i) {
      system->AddSite(kInprocProtocols[i], ProtocolKind::kPrAny);
    }
  });
  std::mt19937_64 rng = RoundRng(opts, round);
  std::vector<Plan> plan = InprocPlan(repeats, &rng);
  std::map<SiteId, ProtocolKind> protocol_of;
  for (SiteId i = 0; i < kInprocSites; ++i) protocol_of[i] = kInprocProtocols[i];
  if (round == 0) {
    res->setup_s = 1e-9 * static_cast<double>(NowNs() - opts.start_ns);
    res->samples.Add("memory.rss_after_setup_mb", RssMb());
  }
  double rss0 = RssMb();

  std::vector<TxnRun> runs(plan.size());
  std::vector<LoadThreadOut> outs;
  int threads_seen = 0;
  double cpu0 = CpuSeconds(RUSAGE_SELF);
  double load_s =
      RunLoad({system.get()}, plan, kInprocThreads, kInprocWindowPerThread,
              tracer->enabled(), &runs, &outs,
              tracer->enabled() ? &threads_seen : nullptr);
  bool quiet = false;
  TimedMs(tracer, "quiesce",
          [&]() { quiet = system->Quiesce(kQuiesceTimeoutUs); });
  int64_t quiesced_us = static_cast<int64_t>(system->loop().Now());
  double cpu_s = CpuSeconds(RUSAGE_SELF) - cpu0;
  if (!quiet) res->Fail("system did not quiesce");
  if (round == 0) {
    res->samples.Add("memory.rss_growth_kb_per_txn",
                     1024.0 * (RssMb() - rss0) / static_cast<double>(plan.size()));
  }

  PhaseMap phases;
  AddPhases(system->history(), 0, &phases);
  int64_t loop_to_steady = LoopToSteadyNs(system.get());
  uint64_t decided =
      FoldRound(plan, runs, phases, loop_to_steady, tracer, res);
  res->samples.Add("runtime.quiesce_ms", QuiesceMs(phases, quiesced_us));
  RecordCpu(load_s, cpu_s, outs, threads_seen, decided, res);
  for (LoadThreadOut& o : outs) tracer->Merge(&o.spans);

  // Layer counters, read before the crash resets the victim's WAL.
  uint64_t forced = 0, fsyncs = 0, bytes = 0;
  for (SiteId i = 0; i < kInprocSites; ++i) {
    prany::FileStableLog* wal = system->live_site(i)->wal();
    forced += wal->stats().forced_appends;
    fsyncs += wal->fsyncs();
    bytes += FileSize(wal->path());
  }
  prany::runtime::LiveTransportStats net = system->transport().stats();
  CheckCosts(plan, protocol_of, forced, net.messages_sent, res);
  double n = static_cast<double>(std::max<uint64_t>(decided, 1));
  Samples& s = res->samples;
  s.Add("wal.forced_per_txn", static_cast<double>(forced) / n);
  s.Add("wal.fsyncs_per_txn", static_cast<double>(fsyncs) / n);
  s.Add("wal.forces_per_fsync",
        system->metrics().Summarize("wal.batch_forces").mean);
  s.Add("wal.window_us_mean",
        system->metrics().Summarize("wal.batch_window_us").mean);
  s.Add("wal.bytes_per_txn", static_cast<double>(bytes) / n);
  s.Add("net.messages_per_txn", static_cast<double>(net.messages_sent) / n);
  s.Add("net.bytes_per_txn", static_cast<double>(net.bytes_sent) / n);
  uint64_t acquires = net.buffer_pool_hits + net.buffer_pool_misses;
  s.Add("net.pool_hit_rate",
        acquires > 0 ? static_cast<double>(net.buffer_pool_hits) /
                           static_cast<double>(acquires)
                     : 0.0);
  s.Add("net.frames_dropped", static_cast<double>(net.messages_lost_down));
  s.Add("net.connects", 0.0);

  if (tracer->enabled()) {
    TimeWalOpen(system->live_site(0)->wal()->path(), dir + "/copy.wal",
                tracer, res);
  }
  CrashAndServe(system.get(), 0, {1, 2}, tracer, res);
  if (!system->Quiesce(kQuiesceTimeoutUs)) res->Fail("no quiesce after restart");
  Verify(system->history(), system->EndStates(), tracer, res);
  s.Add("history.events_per_txn",
        static_cast<double>(system->history().events().size()) / n);
  system->Stop();
  system.reset();
  for (SiteId i = 0; i < kInprocSites; ++i) {
    unlink((dir + "/site" + std::to_string(i) + ".wal").c_str());
  }
  tracer->Record(Span{"round", "", 0, round_t0, NowNs()});
}

// ---------------------------------------------------------------------------
// uds-serial

constexpr ProtocolKind kUdsProtocols[] = {ProtocolKind::kPrN, ProtocolKind::kPrA,
                                          ProtocolKind::kPrC};
constexpr SiteId kUdsNodes = 3;

/// Waits until every node is idle and every message sent in the cluster
/// has landed (delivered, or dropped at a down site), twice in a row: a
/// frame in a kernel socket buffer leaves both of its nodes looking idle.
bool QuiesceCluster(const std::vector<LiveSystem*>& nodes) {
  int64_t deadline = NowNs() + static_cast<int64_t>(kQuiesceTimeoutUs) * 1000;
  uint64_t settled = UINT64_MAX;
  while (NowNs() < deadline) {
    bool idle = true;
    uint64_t sent = 0, landed = 0;
    for (LiveSystem* node : nodes) {
      idle = node->Quiesce(kQuiesceTimeoutUs) && idle;
      prany::runtime::SocketTransportStats st = node->socket_transport()->stats();
      sent += st.messages_sent;
      landed += st.messages_delivered + st.messages_lost_down +
                st.frames_dropped_backlog + st.frames_dropped_corrupt;
    }
    if (idle && sent == landed && sent == settled) return true;
    settled = idle && sent == landed ? sent : UINT64_MAX;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

/// Per node: blocks of ten transactions over the other two nodes, eight
/// all-yes, one with a planned no-vote and one with a read-only vote
/// (which participant casts it is drawn from the seed).
std::vector<Plan> UdsPlan(SiteId node, size_t blocks, std::mt19937_64* rng) {
  std::vector<SiteId> others;
  for (SiteId s = 0; s < kUdsNodes; ++s) {
    if (s != node) others.push_back(s);
  }
  std::vector<Plan> plan;
  for (size_t b = 0; b < blocks; ++b) {
    for (int k = 0; k < 10; ++k) {
      Plan p{node, others, {Vote::kYes, Vote::kYes}};
      if (k >= 8) p.votes[(*rng)() % 2] = k == 8 ? Vote::kNo : Vote::kReadOnly;
      plan.push_back(p);
    }
  }
  std::shuffle(plan.begin(), plan.end(), *rng);
  return plan;
}

void UdsRound(const Options& opts, Tracer* tracer, int round, size_t blocks,
              Result* res) {
  const std::string& dir = opts.work_dir;
  int64_t round_t0 = NowNs();
  std::vector<std::string> addresses;
  for (SiteId i = 0; i < kUdsNodes; ++i) {
    addresses.push_back("uds:" + dir + "/s" + std::to_string(i) + ".sock");
  }
  std::vector<std::unique_ptr<LiveSystem>> nodes;
  TimedMs(tracer, "setup", [&]() {
    for (SiteId i = 0; i < kUdsNodes; ++i) {
      LiveSystemConfig config = BaseConfig(dir);
      config.listen_address = addresses[i];
      config.txn_id_base = static_cast<TxnId>(i + 1) << 40;
      for (SiteId j = 0; j < kUdsNodes; ++j) {
        if (j == i) continue;
        config.remote_sites.push_back(
            LiveSystemConfig::RemoteSite{j, kUdsProtocols[j], addresses[j]});
      }
      nodes.push_back(std::make_unique<LiveSystem>(std::move(config)));
      prany::CoordinatorSpec spec;
      spec.kind = ProtocolKind::kPrAny;
      nodes.back()->AddSiteWithId(i, kUdsProtocols[i], spec);
    }
  });
  std::mt19937_64 rng = RoundRng(opts, round);
  // Load thread i drives node i: interleave the nodes' plans so that
  // transaction k goes to thread k % 3.
  std::vector<std::vector<Plan>> per_node;
  for (SiteId i = 0; i < kUdsNodes; ++i) per_node.push_back(UdsPlan(i, blocks, &rng));
  std::vector<Plan> plan;
  for (size_t k = 0; k < per_node[0].size(); ++k) {
    for (SiteId i = 0; i < kUdsNodes; ++i) plan.push_back(per_node[i][k]);
  }
  std::map<SiteId, ProtocolKind> protocol_of;
  for (SiteId i = 0; i < kUdsNodes; ++i) protocol_of[i] = kUdsProtocols[i];
  if (round == 0) {
    res->setup_s = 1e-9 * static_cast<double>(NowNs() - opts.start_ns);
    res->samples.Add("memory.rss_after_setup_mb", RssMb());
  }
  double rss0 = RssMb();

  std::vector<LiveSystem*> raw;
  for (auto& node : nodes) raw.push_back(node.get());
  std::vector<TxnRun> runs(plan.size());
  std::vector<LoadThreadOut> outs;
  int threads_seen = 0;
  double cpu0 = CpuSeconds(RUSAGE_SELF);
  double load_s = RunLoad(raw, plan, kUdsNodes, /*window=*/1,
                          tracer->enabled(), &runs, &outs,
                          tracer->enabled() ? &threads_seen : nullptr);
  bool quiet = false;
  TimedMs(tracer, "quiesce", [&]() { quiet = QuiesceCluster(raw); });
  int64_t quiesced_us = static_cast<int64_t>(nodes[0]->loop().Now());
  double cpu_s = CpuSeconds(RUSAGE_SELF) - cpu0;
  if (!quiet) res->Fail("cluster did not quiesce");
  if (round == 0) {
    res->samples.Add("memory.rss_growth_kb_per_txn",
                     1024.0 * (RssMb() - rss0) / static_cast<double>(plan.size()));
  }

  // Node clocks: read back to back, relative to node 0.
  PhaseMap phases;
  std::vector<int64_t> offsets(kUdsNodes, 0);
  for (SiteId i = 1; i < kUdsNodes; ++i) {
    int64_t a = static_cast<int64_t>(nodes[0]->loop().Now());
    int64_t b = static_cast<int64_t>(nodes[i]->loop().Now());
    int64_t c = static_cast<int64_t>(nodes[0]->loop().Now());
    offsets[i] = b - (a + c) / 2;
  }
  for (SiteId i = 0; i < kUdsNodes; ++i) {
    AddPhases(nodes[i]->history(), offsets[i], &phases);
  }
  for (size_t k = 0; k < runs.size(); ++k) {
    runs[k].stamp_us -= offsets[plan[k].coordinator];
  }
  uint64_t decided =
      FoldRound(plan, runs, phases, LoopToSteadyNs(nodes[0].get()), tracer, res);
  res->samples.Add("runtime.quiesce_ms", QuiesceMs(phases, quiesced_us));
  RecordCpu(load_s, cpu_s, outs, threads_seen, decided, res);
  for (LoadThreadOut& o : outs) tracer->Merge(&o.spans);

  uint64_t forced = 0, fsyncs = 0, bytes = 0, messages = 0, net_bytes = 0,
           dropped = 0, connects = 0;
  double forces_per_fsync = 0.0, window_us = 0.0;
  for (SiteId i = 0; i < kUdsNodes; ++i) {
    prany::FileStableLog* wal = nodes[i]->live_site(i)->wal();
    forced += wal->stats().forced_appends;
    fsyncs += wal->fsyncs();
    bytes += FileSize(wal->path());
    prany::runtime::SocketTransportStats st =
        nodes[i]->socket_transport()->stats();
    messages += st.messages_sent;
    net_bytes += st.bytes_sent;
    dropped += st.frames_dropped_backlog + st.frames_dropped_corrupt;
    connects += st.connects_completed;
    forces_per_fsync += nodes[i]->metrics().Summarize("wal.batch_forces").mean;
    window_us += nodes[i]->metrics().Summarize("wal.batch_window_us").mean;
  }
  CheckCosts(plan, protocol_of, forced, messages, res);
  if (dropped != 0) res->Fail("socket transport dropped frames");
  double n = static_cast<double>(std::max<uint64_t>(decided, 1));
  Samples& s = res->samples;
  s.Add("wal.forced_per_txn", static_cast<double>(forced) / n);
  s.Add("wal.fsyncs_per_txn", static_cast<double>(fsyncs) / n);
  s.Add("wal.forces_per_fsync", forces_per_fsync / kUdsNodes);
  s.Add("wal.window_us_mean", window_us / kUdsNodes);
  s.Add("wal.bytes_per_txn", static_cast<double>(bytes) / n);
  s.Add("net.messages_per_txn", static_cast<double>(messages) / n);
  s.Add("net.bytes_per_txn", static_cast<double>(net_bytes) / n);
  s.Add("net.pool_hit_rate", 0.0);
  s.Add("net.frames_dropped", static_cast<double>(dropped));
  s.Add("net.connects", static_cast<double>(connects));

  if (tracer->enabled()) {
    TimeWalOpen(nodes[0]->live_site(0)->wal()->path(), dir + "/copy.wal",
                tracer, res);
  }
  CrashAndServe(nodes[0].get(), 0, {1, 2}, tracer, res);
  if (!QuiesceCluster(raw)) res->Fail("no quiesce after restart");
  // The checkers' view of the cluster: the nodes' histories concatenated
  // (sound: the criteria never rely on cross-site event order).
  prany::EventLog merged;
  std::vector<prany::SiteEndState> end_states;
  for (auto& node : nodes) {
    for (const SigEvent& e : node->history().events()) merged.Record(e);
    for (const prany::SiteEndState& st : node->EndStates()) end_states.push_back(st);
  }
  Verify(merged, end_states, tracer, res);
  s.Add("history.events_per_txn",
        static_cast<double>(merged.events().size()) / n);
  for (auto& node : nodes) node->Stop();
  nodes.clear();
  for (SiteId i = 0; i < kUdsNodes; ++i) {
    unlink((dir + "/site" + std::to_string(i) + ".wal").c_str());
    unlink((dir + "/s" + std::to_string(i) + ".sock").c_str());
  }
  tracer->Record(Span{"round", "", 0, round_t0, NowNs()});
}

/// Runs rounds until `opts.seconds` have passed (one round when small).
template <typename RoundFn>
void RunRounds(const Options& opts, Result* res, RoundFn&& round_fn) {
  int64_t t0 = NowNs();
  do {
    round_fn(res->rounds);
    ++res->rounds;
  } while (!opts.small &&
           1e-9 * static_cast<double>(NowNs() - t0) < opts.seconds);
}

}  // namespace

/// A homogeneous participant set runs its native
/// protocol; a mixed set runs PrAny mode (Figure 1: forced initiation,
/// forced commit record, no abort record). Only yes-voters are sent the
/// decision: no-voters have aborted and read-only voters have left.
Cost PredictPrAny(const std::vector<ProtocolKind>& protocols,
                  const std::vector<Vote>& votes) {
  bool homogeneous = std::all_of(
      protocols.begin(), protocols.end(),
      [&](ProtocolKind p) { return p == protocols.front(); });
  ProtocolKind mode = homogeneous ? protocols.front() : ProtocolKind::kPrAny;
  bool commit = std::none_of(votes.begin(), votes.end(),
                             [](Vote v) { return v == Vote::kNo; });
  Cost cost;
  if (mode == ProtocolKind::kPrC || mode == ProtocolKind::kPrAny) {
    cost.forced += 1;  // initiation record
  }
  uint64_t recipients = 0;
  for (size_t i = 0; i < protocols.size(); ++i) {
    if (votes[i] != Vote::kYes) continue;
    ++recipients;
    cost.forced += 1;  // PREPARED
    if (RuleForcesDecision(protocols[i], commit)) cost.forced += 1;
    if (RuleAcks(protocols[i], commit)) cost.messages += 1;  // ACK
  }
  if (recipients > 0 && (mode == ProtocolKind::kPrN || commit)) {
    cost.forced += 1;  // coordinator decision record
  }
  cost.messages += 2 * protocols.size() + recipients;  // PREPARE, VOTE, DECISION
  return cost;
}

Result RunInprocSaturated(const Options& opts, Tracer* tracer) {
  Result res;
  // 12 combinations x 1000 = 12000 transactions a round.
  size_t repeats = opts.small ? 50 : 1000;
  RunRounds(opts, &res, [&](int round) {
    InprocRound(opts, tracer, round, repeats, &res);
    ModelCheckLiveConfig(opts, tracer, &res);
  });
  return res;
}

Result RunUdsSerial(const Options& opts, Tracer* tracer) {
  Result res;
  // Blocks of ten per node: 3 x 10 x 60 = 1800 transactions a round.
  size_t blocks = opts.small ? 5 : 60;
  RunRounds(opts, &res, [&](int round) {
    UdsRound(opts, tracer, round, blocks, &res);
    ModelCheckLiveConfig(opts, tracer, &res);
  });
  return res;
}

}  // namespace perfbench
