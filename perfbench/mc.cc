// The mc-explore workload, and the model check that ends every round of
// the live workloads.
//
// mc-explore runs on one thread with no wall-clock timers, so its counts
// repeat exactly. A round is:
//   1. McExplorer over fixed configurations at a fixed explorer seed and
//      budget. PrAny over (PrN, PrA, PrC), all-yes and with a planned
//      no-vote, one loss, one duplication and one crash allowed per
//      execution, 600 executions each: must come back clean. U2PC over
//      (PrA, PrC), all-yes under every native protocol, explored to
//      exhaustion at the small budget: must rediscover Theorem 1's
//      atomicity violation, and its minimized schedule must replay to
//      the same violation.
//   2. A sample of seed-drawn schedules replayed one by one through
//      McExplorer::RunSchedule (the per-execution latency).
//   3. The simulator carrying a fixed batch of PrAny transactions over
//      the inproc-saturated topology, then crash-restart cycles of its
//      sites, each followed by a transaction the restarted site
//      coordinates.

#include <pthread.h>
#include <sched.h>

#include <map>
#include <random>
#include <set>

#include "bench.h"
#include "harness/system.h"
#include "mc/explorer.h"

namespace perfbench {
namespace {

using prany::McBudget;
using prany::McConfig;
using prany::McExplorer;
using prany::McResult;
using prany::Outcome;
using prany::ProtocolKind;
using prany::SigEventType;
using prany::SiteId;
using prany::TxnId;
using prany::Vote;

/// Explorer seed and budget: fixed, so every round explores the same
/// schedules; --seed only draws the replayed sample and the simulator's
/// transaction order.
constexpr uint64_t kExplorerSeed = 1;

McBudget ExploreBudget(uint64_t max_executions) {
  McBudget budget = prany::SmallBudget();
  budget.loss_budget = 1;
  budget.dup_budget = 1;
  budget.max_executions = max_executions;
  return budget;
}

McConfig PrAnyConfig(std::map<SiteId, Vote> votes, uint64_t max_executions) {
  McConfig config;
  config.coordinator = ProtocolKind::kPrAny;
  config.participants = {ProtocolKind::kPrN, ProtocolKind::kPrA,
                         ProtocolKind::kPrC};
  config.votes = std::move(votes);
  config.seed = kExplorerSeed;
  config.budget = ExploreBudget(max_executions);
  return config;
}

struct ExploreTotals {
  uint64_t executions = 0;
  uint64_t choice_points = 0;
  uint64_t pruned = 0;
  uint64_t minimization_runs = 0;
  double seconds = 0.0;
};

/// Explores `config`; returns the result and adds to `totals`.
McResult Explore(const McConfig& config, Tracer* tracer,
                 ExploreTotals* totals) {
  McResult result;
  double ms = TimedMs(tracer, "mc.explore",
                      [&]() { result = McExplorer(config).Explore(); });
  const prany::McStats& st = result.stats;
  totals->executions += st.executions;
  totals->choice_points += st.choice_points;
  totals->pruned += st.dedup_skips + st.sleep_skips;
  totals->minimization_runs += st.minimization_runs;
  totals->seconds += 1e-3 * ms;
  return result;
}

void RecordExplore(const ExploreTotals& t, Result* res) {
  Samples& s = res->samples;
  double executions = static_cast<double>(t.executions);
  s.Add("mc_executions_per_s",
        (executions + static_cast<double>(t.minimization_runs)) / t.seconds);
  s.Add("mc.executions", executions);
  s.Add("mc.choice_points_per_execution",
        static_cast<double>(t.choice_points) / executions);
  s.Add("mc.pruned_ratio", static_cast<double>(t.pruned) /
                               static_cast<double>(t.pruned + t.executions));
  s.Add("mc.minimization_runs", static_cast<double>(t.minimization_runs));
}

/// Replays `count` seed-drawn schedules of `config` and records their
/// wall times; each must pass every oracle (PrAny is correct).
void SampleSchedules(const McConfig& config, size_t count,
                     std::mt19937_64* rng, Tracer* tracer, Result* res) {
  std::vector<double> us;
  for (size_t i = 0; i < count; ++i) {
    // Mostly default choices with a few alternatives, as the explorer's
    // frontier looks; out-of-range choices fall back to the default.
    std::vector<uint32_t> choices(40, 0);
    for (uint32_t& c : choices) {
      if ((*rng)() % 4 == 0) c = static_cast<uint32_t>((*rng)() % 4);
    }
    int64_t t0 = NowNs();
    prany::McRunReport report = McExplorer::RunSchedule(config, choices);
    int64_t t1 = NowNs();
    tracer->Record(Span{"mc.run_schedule", "round", i, t0, t1});
    us.push_back(1e-3 * static_cast<double>(t1 - t0));
    ++res->attempted;
    if (!report.violations.empty()) {
      res->Fail("PrAny schedule violated " + report.violations[0].oracle);
    }
  }
  res->samples.Add("latency_p50_us", Percentile(us, 0.50));
  res->samples.Add("latency_p99_us", Percentile(us, 0.99));
  res->samples.Add("mc.run_schedule_us_p50", Percentile(us, 0.50));
}

/// Step 3: simulated load, then crash-restart cycles.
void SimulatorPhase(const Options& opts, int round, size_t txns,
                    size_t cycles, std::mt19937_64* rng, Tracer* tracer,
                    Result* res) {
  static constexpr ProtocolKind kProtocols[] = {
      ProtocolKind::kPrN, ProtocolKind::kPrA, ProtocolKind::kPrC,
      ProtocolKind::kPrN};
  prany::SystemConfig config;
  config.seed = opts.seed + static_cast<uint64_t>(round);
  prany::System system(config);
  for (ProtocolKind p : kProtocols) system.AddSite(p, ProtocolKind::kPrAny);

  // Every (coordinator, participant pair) equally often, shuffled.
  std::vector<std::pair<SiteId, std::vector<SiteId>>> plan;
  for (size_t r = 0; plan.size() < txns; ++r) {
    for (SiteId c = 0; c < 4; ++c) {
      for (SiteId a = 0; a < 4; ++a) {
        for (SiteId b = a + 1; b < 4; ++b) {
          if (a != c && b != c) plan.push_back({c, {a, b}});
        }
      }
    }
  }
  plan.resize(txns);
  std::shuffle(plan.begin(), plan.end(), *rng);
  uint64_t predicted = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    const auto& [c, parts] = plan[i];
    system.SubmitAt(static_cast<prany::SimTime>(i) * 100,
                    system.MakeTransaction(c, parts));
    predicted += PredictPrAny({kProtocols[parts[0]], kProtocols[parts[1]]},
                              {Vote::kYes, Vote::kYes})
                     .forced;
  }
  double cpu0 = CpuSeconds(RUSAGE_SELF);
  double load_ms = TimedMs(tracer, "sim.run", [&]() { system.Run(); });
  double cpu_s = CpuSeconds(RUSAGE_SELF) - cpu0;

  uint64_t commits = 0;
  for (const prany::SigEvent& e : system.history().events()) {
    if (e.type == SigEventType::kCoordDecide && e.outcome == Outcome::kCommit) {
      ++commits;
    }
  }
  res->attempted += txns;
  if (commits != txns) {
    res->failed += txns - std::min<uint64_t>(commits, txns);
    res->Fail("simulated transactions committed: " + std::to_string(commits));
  }
  uint64_t forced = 0, records = 0;
  for (SiteId i = 0; i < 4; ++i) {
    forced += system.site(i)->wal()->stats().forced_appends;
    records += system.site(i)->wal()->StableSize();
  }
  if (forced != predicted) {
    res->Fail("simulated forced appends " + std::to_string(forced) +
              " != predicted " + std::to_string(predicted));
  }
  Samples& s = res->samples;
  double n = static_cast<double>(txns);
  s.Add("decided_per_s", n / (1e-3 * load_ms));
  s.Add("cpu_us_per_txn", 1e6 * cpu_s / n);
  s.Add("wal.forced_per_txn", static_cast<double>(forced) / n);
  s.Add("net.messages_per_txn",
        static_cast<double>(system.net().stats().messages_sent) / n);
  s.Add("wal.records_recovered", static_cast<double>(records) / 4.0);

  // Crash-restart cycles: crash a site, recover it from its stable log,
  // and run a transaction it coordinates to its decision.
  double restart_ms = 0.0;
  std::set<TxnId> probes;
  for (size_t k = 0; k < cycles; ++k) {
    SiteId site = static_cast<SiteId>(k % 4);
    std::vector<SiteId> parts;
    for (SiteId p = 0; p < 4 && parts.size() < 2; ++p) {
      if (p != site) parts.push_back(p);
    }
    restart_ms += TimedMs(tracer, "sim.restart", [&]() {
      system.site(site)->CrashNow(0);
      system.site(site)->RecoverNow();
      prany::Transaction t = system.MakeTransaction(site, parts);
      probes.insert(t.id);
      system.SubmitAt(system.sim().Now() + 1, t);
      system.Run();
    });
  }
  res->attempted += cycles;
  for (const prany::SigEvent& e : system.history().events()) {
    if (e.type == SigEventType::kCoordDecide && e.outcome == Outcome::kCommit) {
      probes.erase(e.txn);
    }
  }
  if (!probes.empty()) {
    res->failed += probes.size();
    res->Fail("simulated restarted sites did not commit " +
              std::to_string(probes.size()) + " transactions");
  }
  s.Add("restart_ms", restart_ms / static_cast<double>(cycles));

  bool atomic = false, safe = false, operational = false;
  double a = TimedMs(tracer, "check.atomicity",
                     [&]() { atomic = system.CheckAtomicity().ok(); });
  double sf = TimedMs(tracer, "check.safe_state",
                      [&]() { safe = system.CheckSafeState().ok(); });
  double o = TimedMs(tracer, "check.operational",
                     [&]() { operational = system.CheckOperational().ok(); });
  if (!atomic || !safe || !operational) {
    res->Fail("simulator history failed a checker");
  }
  s.Add("history.atomicity_ms", a);
  s.Add("history.safe_state_ms", sf);
  s.Add("history.operational_ms", o);
  s.Add("verify_ms", a + sf + o);
  s.Add("history.events_per_txn",
        static_cast<double>(system.history().events().size()) / n);
}

void McRound(const Options& opts, Tracer* tracer, int round, Result* res) {
  int64_t round_t0 = NowNs();
  std::mt19937_64 rng(opts.seed * 0x9e3779b97f4a7c15ull +
                      static_cast<uint64_t>(round));
  const uint64_t max_executions = opts.small ? 150 : 600;
  std::vector<McConfig> prany = {
      PrAnyConfig({}, max_executions),
      PrAnyConfig({{2, Vote::kNo}}, max_executions)};
  // prany_check's U2PC configurations at its small budget, explored to
  // exhaustion: all-yes under each native protocol (the vote patterns
  // with a no-voter add executions but no new violation).
  std::vector<McConfig> u2pc;
  for (const McConfig& config : prany::StandardModelCheckConfigs(
           ProtocolKind::kU2PC, 2, prany::SmallBudget(), kExplorerSeed)) {
    if (config.votes.empty()) u2pc.push_back(config);
  }
  if (opts.small) u2pc.resize(1);
  if (round == 0) {
    res->setup_s = 1e-9 * static_cast<double>(NowNs() - opts.start_ns);
    res->samples.Add("memory.rss_after_setup_mb", RssMb());
  }
  double rss0 = RssMb();

  ExploreTotals totals;
  for (const McConfig& config : prany) {
    McResult result = Explore(config, tracer, &totals);
    res->attempted += result.stats.executions;
    if (!result.Clean()) {
      res->Fail("PrAny counterexample (" + result.counterexamples[0].oracle +
                ") in " + config.Describe());
    }
  }
  bool found = false;
  for (const McConfig& config : u2pc) {
    McResult result = Explore(config, tracer, &totals);
    res->attempted += result.stats.executions;
    for (const prany::McCounterexample& ce : result.counterexamples) {
      if (ce.oracle != "atomicity") continue;
      prany::McRunReport replay = McExplorer::RunSchedule(config, ce.choices);
      if (ce.replay_deterministic && replay.HasOracle("atomicity")) {
        found = true;
      } else {
        res->Fail("U2PC counterexample does not replay: " + config.Describe());
      }
    }
  }
  if (!found) res->Fail("U2PC atomicity violation not found");
  RecordExplore(totals, res);

  SampleSchedules(prany[0], opts.small ? 100 : 1000, &rng, tracer, res);
  SimulatorPhase(opts, round, opts.small ? 240 : 3000, opts.small ? 20 : 1000,
                 &rng, tracer, res);
  if (round == 0) {
    res->samples.Add("memory.rss_growth_kb_per_txn",
                     1024.0 * (RssMb() - rss0) /
                         static_cast<double>(totals.executions));
  }
  tracer->Record(Span{"round", "", 0, round_t0, NowNs()});
}

/// Moves the calling thread to the `round`-th CPU it may run on. The
/// workload is single-threaded, and on a shared host one CPU can run the
/// same work 25% slower than another for minutes; rotating the rounds
/// over every CPU keeps a run from measuring whichever one it landed on.
void PinToRoundCpu(const cpu_set_t& allowed, int round) {
  int count = CPU_COUNT(&allowed);
  if (count <= 1) return;
  int skip = round % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    return;
  }
}

}  // namespace

Result RunMcExplore(const Options& opts, Tracer* tracer) {
  Result res;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  int64_t t0 = NowNs();
  do {
    PinToRoundCpu(allowed, res.rounds);
    McRound(opts, tracer, res.rounds, &res);
    ++res.rounds;
  } while (!opts.small &&
           1e-9 * static_cast<double>(NowNs() - t0) < opts.seconds);
  return res;
}

void ModelCheckLiveConfig(const Options& opts, Tracer* tracer,
                          Result* result) {
  // The mixed pair every live workload runs in PrAny mode.
  McConfig config;
  config.coordinator = ProtocolKind::kPrAny;
  config.participants = {ProtocolKind::kPrA, ProtocolKind::kPrC};
  config.seed = kExplorerSeed;
  config.budget = ExploreBudget(opts.small ? 50 : 150);
  ExploreTotals totals;
  McResult mc = Explore(config, tracer, &totals);
  result->attempted += mc.stats.executions;
  if (!mc.Clean()) result->Fail("model check of the live configuration");
  RecordExplore(totals, result);
}

}  // namespace perfbench
