#include "src/cli/runners.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "src/analysis/board_stats.h"
#include "src/analysis/schedule_stats.h"
#include "src/cli/spec.h"
#include "src/graph/algorithms.h"
#include "src/protocols/anon_frontier.h"
#include "src/protocols/bfs_sync.h"
#include "src/protocols/codec.h"
#include "src/protocols/build_degenerate.h"
#include "src/protocols/build_forest.h"
#include "src/protocols/build_full.h"
#include "src/protocols/eob_bfs.h"
#include "src/protocols/krz.h"
#include "src/protocols/mis.h"
#include "src/protocols/oracles.h"
#include "src/protocols/randomized.h"
#include "src/protocols/subgraph.h"
#include "src/protocols/triangle.h"
#include "src/protocols/two_cliques.h"
#include "src/support/hash.h"
#include "src/wb/batch.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"
#include "src/wb/faults.h"

namespace wb::cli {

namespace {

/// One shard of a planned sweep to execute (see src/wb/shard.h): the parsed
/// spec, the worker thread count, and where to deposit the result — the
/// dispatch machinery returns RunReports, so the ShardResult travels by
/// out-pointer.
struct ShardRunRequest {
  const shard::ShardSpec* spec = nullptr;
  std::size_t threads = 0;
  shard::ShardResult* out = nullptr;
};

/// A sharding plan to produce instead of running anything.
struct ShardPlanRequest {
  std::size_t shard_count = 1;
  shard::PlanOptions options;
  std::string protocol_spec;  // recorded verbatim in every spec
  std::vector<shard::ShardSpec>* out = nullptr;
};

/// How a spec dispatch schedules its runs: one borrowed adversary, the
/// seeded standard battery fanned out through the batch engine, the
/// exhaustive sweep over every schedule (parallel subtree partition), one
/// shard of such a sweep, or just the sharding plan.
struct RunPlan {
  Adversary* single = nullptr;  // set: exactly this strategy
  std::uint64_t seed = 0;       // else: standard_adversaries(g, seed)
  BatchOptions batch;
  const ExhaustiveRunOptions* exhaustive = nullptr;  // set: sweep every schedule
  const ShardRunRequest* shard_run = nullptr;    // set: run one shard
  const ShardPlanRequest* shard_plan = nullptr;  // set: emit the plan only
};

/// The lines that open every report: protocol, graph and adversary.
void write_header(std::ostringstream& os, const Graph& g, const Protocol& p,
                  const std::string& adversary) {
  os << "protocol   " << p.name() << " (" << model_name(p.model_class())
     << "[" << p.message_bit_limit(g.node_count()) << " bits])\n";
  os << "graph      n=" << g.node_count() << " m=" << g.edge_count() << "\n";
  os << "adversary  " << adversary << "\n";
}

void describe_run(std::ostringstream& os, const Graph& g, const Protocol& p,
                  const std::string& adversary, const ExecutionResult& r) {
  write_header(os, g, p, adversary);
  os << "status     " << status_name(r.status);
  if (!r.error.empty()) os << " — " << r.error;
  os << "\n";
  const ScheduleStats sched = analyze_schedule(r);
  const BoardStats board = analyze_board(r.board);
  os << "schedule   rounds=" << sched.rounds << " writes=" << sched.writes
     << " activation-waves=" << sched.activation_waves
     << " mean-latency=" << sched.mean_latency << "\n";
  os << "board      bits=" << board.total_bits << " max-msg="
     << board.max_message_bits << " distinct=" << board.distinct_messages
     << " utilization="
     << budget_utilization(board, g.node_count(),
                           p.message_bit_limit(g.node_count()))
     << "\n";
}

/// The counts every sweep backend answers, whatever totals type it returns.
struct SweepTotals {
  std::uint64_t executions = 0;
  std::uint64_t engine_failures = 0;
  std::uint64_t wrong_outputs = 0;
  std::uint64_t distinct = 0;
};

/// The report of a sweep: the header, then the `schedules`/`verdict` lines
/// CI diffs across backends. `detail` follows the adversary name on its
/// line. A statistical sweep passes its `sampled` verdict tally, which
/// replaces the exhaustive lines (executions are then sampled trials).
RunReport sweep_report(const Graph& g, const Protocol& p,
                       std::string adversary, const std::string& detail,
                       const SweepTotals& t, const DistinctConfig& distinct,
                       const VerdictAccumulator* sampled = nullptr) {
  RunReport report;
  report.executed = true;
  report.adversary = std::move(adversary);
  report.executions = t.executions;
  report.engine_failures = t.engine_failures;
  report.wrong_outputs = t.wrong_outputs;
  report.correct = t.engine_failures + t.wrong_outputs == 0;
  report.status = t.engine_failures == 0 ? "success" : "mixed";
  std::ostringstream os;
  write_header(os, g, p, report.adversary + detail);
  if (sampled != nullptr) {
    report.statistical = true;
    report.verdict_trials = sampled->trials();
    report.verdict_failures = sampled->failures();
    os << statistical_summary_lines(*sampled);
  } else {
    os << exhaustive_summary_lines(t.executions, t.engine_failures,
                                   t.wrong_outputs, t.distinct, distinct);
  }
  report.summary = os.str();
  return report;
}

/// Running minimum over failing schedules: the counterexample a
/// `--counterexample` sweep reports. Lexicographic order on the write order
/// — exactly the serial DFS visit order, so the minimum is the
/// "smallest-prefix" failing schedule and is thread-count independent.
struct CounterexampleTracker {
  std::mutex mu;
  bool found = false;
  std::vector<NodeId> write_order;
  std::string status;

  /// Returns true the first time a failure is recorded.
  bool record(const ExecutionResult& r, const char* why) {
    const std::lock_guard<std::mutex> lock(mu);
    const bool first = !found;
    if (!found || r.write_order < write_order) {
      found = true;
      write_order = r.write_order;
      status = why;
    }
    return first;
  }

  [[nodiscard]] std::string order_text() const {
    std::string text;
    for (const NodeId v : write_order) {
      if (!text.empty()) text += " ";
      text += std::to_string(v);
    }
    return text;
  }
};

/// The typed fault classifier every fault-aware sweep path shares. Verdict
/// rules:
///  - a successful execution is judged by the protocol's own check;
///  - a crash execution's natural deadlock (crashed nodes never write) is
///    judged on the partial board — crash-tolerant protocols still answer,
///    and a wrong answer is kWrongOutput, not an engine failure;
///  - every other engine failure, and a DataError from a robust decoder
///    rejecting a corrupted/truncated board, is kDeadlockOrFault.
template <typename P, typename Check>
FaultClassifier make_fault_classifier(const P& protocol, const Graph& g,
                                      const Check& check) {
  const std::size_t n = g.node_count();
  return [&protocol, n, check](const ExecutionResult& r,
                               std::span<const NodeId> crashed) {
    const bool judge_partial =
        r.status == RunStatus::kDeadlock && !crashed.empty();
    if (!r.ok() && !judge_partial) return FaultVerdict::kDeadlockOrFault;
    thread_local std::ostringstream sink;
    sink.seekp(0);
    try {
      return check(protocol.output(r.board, n), sink)
                 ? FaultVerdict::kCorrect
                 : FaultVerdict::kWrongOutput;
    } catch (const DataError&) {
      return FaultVerdict::kDeadlockOrFault;
    }
  };
}

/// Fault-model sweep: crash/corruption worlds exhaustively, the adaptive
/// adversary statistically. Shares report shape (and the `schedules` /
/// `verdict` line prefixes CI diffs) with the fault-free exhaustive runner.
template <typename P, typename Check>
std::vector<RunReport> run_exhaustive_faulty(const P& protocol, const Graph& g,
                                             const ExhaustiveRunOptions& ropts,
                                             const Check& check) {
  const FaultClassifier classify = make_fault_classifier(protocol, g, check);
  const std::string faults = ", faults=" + fault_spec_to_string(ropts.faults);
  const bool adaptive = ropts.faults.kind == FaultKind::kAdaptive;
  if (adaptive || ropts.statistical_trials > 0) {
    StatisticalOptions sopts;
    sopts.trials = adaptive ? ropts.faults.trials : ropts.statistical_trials;
    sopts.seed = ropts.faults.seed;
    sopts.threads = ropts.threads;
    const StatisticalTotals totals =
        run_statistical_verdict(g, protocol, ropts.faults, classify, sopts);
    return {sweep_report(
        g, protocol,
        std::string(adaptive ? "adaptive" : "statistical") +
            "(threads=" + std::to_string(ropts.threads) + faults + ")",
        "",
        {totals.verdict.trials(), totals.engine_failures, totals.wrong_outputs,
         0},
        ropts.distinct, &totals.verdict)};
  }
  ExhaustiveOptions opts;
  opts.threads = ropts.threads;
  opts.max_executions = ropts.max_executions;
  opts.distinct = ropts.distinct;
  const FaultSweepTotals totals =
      sweep_faulty_executions(g, protocol, ropts.faults, classify, opts);
  RunReport report = sweep_report(
      g, protocol,
      "exhaustive(threads=" + std::to_string(ropts.threads) + faults + ")",
      " — " + std::to_string(totals.worlds) + " fault worlds",
      {totals.executions, totals.engine_failures, totals.wrong_outputs,
       totals.distinct != nullptr ? totals.distinct->estimate() : 0},
      ropts.distinct);
  report.fault_worlds = totals.worlds;
  return {std::move(report)};
}

/// Memoized exhaustive plan (wb::sweep_memoized): serial sweep answering
/// repeated engine states from a memo table. The schedules/verdict lines
/// are byte-identical to the unmemoized serial sweep's; the adversary line
/// reports the collapse.
template <typename P, typename Check>
std::vector<RunReport> run_exhaustive_memoized(const P& protocol,
                                               const Graph& g,
                                               const ExhaustiveRunOptions& ropts,
                                               const Check& check) {
  WB_REQUIRE_MSG(!ropts.counterexample,
                 "memoize does not track counterexamples (memo-hit subtrees "
                 "are never re-visited)");
  WB_REQUIRE_MSG(ropts.faults.kind == FaultKind::kNone &&
                     ropts.statistical_trials == 0,
                 "memoize is fault-free only");
  WB_REQUIRE_MSG(ropts.threads <= 1, "memoized sweeps are serial");
  ExhaustiveOptions opts;
  opts.threads = 1;
  opts.max_executions = ropts.max_executions;
  opts.distinct = ropts.distinct;
  opts.memoize = true;
  const MemoizedTotals totals = sweep_memoized(
      g, protocol,
      [&](const ExecutionResult& r) {
        thread_local std::ostringstream sink;
        sink.seekp(0);
        return check(protocol.output(r.board, g.node_count()), sink);
      },
      opts);

  return {sweep_report(
      g, protocol, "exhaustive(threads=1, memoize)",
      " — " + std::to_string(totals.states_explored) + " states, " +
          std::to_string(totals.memo_hits) + " memo hits, " +
          std::to_string(totals.terminals_visited) + " terminals visited",
      {totals.executions, totals.engine_failures, totals.wrong_outputs,
       totals.distinct},
      ropts.distinct)};
}

/// Exhaustive plan: one report aggregating every adversary schedule, from a
/// SINGLE sweep — output validation and the distinct-board tally share one
/// visitor instead of exploring the n! tree twice. The check callback is
/// invoked concurrently from pool workers — it only reads the (const)
/// graph/protocol and writes to per-worker sinks and per-task accumulators,
/// so the shared state is the atomic tallies (and the counterexample
/// tracker's mutex, touched only on failures). Distinct boards stream
/// through one DistinctAccumulator per subtree task (exact sorted-run dedup
/// or an hll sketch, per ropts.distinct) folded by the accumulator's
/// order-oblivious merge — the same aggregation shape shard::run_shard uses.
template <typename P, typename Check>
std::vector<RunReport> run_exhaustive(const P& protocol, const Graph& g,
                                      const ExhaustiveRunOptions& ropts,
                                      const Check& check) {
  if (ropts.memoize) {
    // First, so memoize+faults misuse hits the memoized runner's loud
    // rejection instead of silently dropping the flag.
    return run_exhaustive_memoized(protocol, g, ropts, check);
  }
  if (ropts.faults.kind != FaultKind::kNone || ropts.statistical_trials > 0) {
    return run_exhaustive_faulty(protocol, g, ropts, check);
  }
  ExhaustiveOptions opts;
  opts.threads = ropts.threads;
  opts.max_executions = ropts.max_executions;
  opts.distinct = ropts.distinct;
  const std::vector<PrefixTask> tasks =
      partition_for_threads(g, protocol, opts.engine, opts.threads);
  std::atomic<std::uint64_t> engine_failures{0};
  std::atomic<std::uint64_t> wrong_outputs{0};
  std::vector<std::unique_ptr<DistinctAccumulator>> accumulators;
  accumulators.reserve(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    accumulators.push_back(make_distinct_accumulator(ropts.distinct));
  }
  CounterexampleTracker cx;
  // The serial DFS visits schedules in lexicographic write-order, so its
  // first failure IS the minimum and the sweep may stop there; parallel
  // sweeps must keep going and take the minimum over every failure.
  const bool stop_at_first_failure = ropts.counterexample && opts.threads == 1;
  const std::uint64_t executions = for_each_execution_under(
      g, protocol, tasks,
      [&](const ExecutionResult& r, std::size_t task) {
        accumulators[task]->insert(r.board.content_hash());
        if (!r.ok()) {
          engine_failures.fetch_add(1, std::memory_order_relaxed);
          if (ropts.counterexample) {
            cx.record(r, status_name(r.status).data());
            return !stop_at_first_failure;
          }
          return true;
        }
        // The verdict text is discarded; seekp(0) reuses the worker's buffer
        // so the hot loop stays allocation-free after warmup.
        thread_local std::ostringstream sink;
        sink.seekp(0);
        if (!check(protocol.output(r.board, g.node_count()), sink)) {
          wrong_outputs.fetch_add(1, std::memory_order_relaxed);
          if (ropts.counterexample) {
            cx.record(r, "wrong-output");
            return !stop_at_first_failure;
          }
        }
        return true;
      },
      opts);
  std::uint64_t distinct = 0;
  if (!accumulators.empty()) {
    std::unique_ptr<DistinctAccumulator> total =
        std::move(accumulators.front());
    for (std::size_t t = 1; t < accumulators.size(); ++t) {
      total->merge(std::move(*accumulators[t]));
    }
    distinct = total->estimate();
  }

  RunReport report = sweep_report(
      g, protocol, "exhaustive(threads=" + std::to_string(opts.threads) + ")",
      "", {executions, engine_failures.load(), wrong_outputs.load(), distinct},
      ropts.distinct);
  if (ropts.counterexample) {
    std::ostringstream os;
    if (cx.found) {
      report.counterexample = cx.order_text();
      os << "counterexample " << report.counterexample << " (" << cx.status
         << ")\n";
      if (stop_at_first_failure) {
        os << "counterexample sweep stopped at the first (smallest-prefix) "
              "failing schedule\n";
      }
    } else {
      os << "counterexample none\n";
    }
    report.summary += os.str();
  }
  return {std::move(report)};
}

/// Sharded plan, run phase: sweep exactly the spec's subtree prefixes with
/// the same validation callback the exhaustive runner uses, depositing the
/// ShardResult through the request's out-pointer. The shard's report is its
/// ShardResult document, so no RunReport is produced.
template <typename P, typename Check>
void run_shard_typed(const P& protocol, const Graph& g,
                     const ShardRunRequest& req, const Check& check) {
  *req.out = shard::run_shard(*req.spec, protocol,
                              make_fault_classifier(protocol, g, check),
                              req.threads);
}

/// Run a typed protocol under every strategy of `plan` (all execution goes
/// through the batch engine) and validate each run with `check(output)`.
template <typename P, typename Check>
std::vector<RunReport> run_typed(const P& protocol, const Graph& g,
                                 const RunPlan& plan, const Check& check) {
  if (plan.shard_plan != nullptr) {
    *plan.shard_plan->out =
        shard::plan_shards(g, protocol, plan.shard_plan->protocol_spec,
                           plan.shard_plan->shard_count,
                           plan.shard_plan->options);
    return {};
  }
  if (plan.shard_run != nullptr) {
    run_shard_typed(protocol, g, *plan.shard_run, check);
    return {};
  }
  if (plan.exhaustive != nullptr) {
    return run_exhaustive(protocol, g, *plan.exhaustive, check);
  }
  std::vector<BatteryRun> runs;
  if (plan.single != nullptr) {
    Trial t;
    t.graph = &g;
    t.protocol = &protocol;
    t.adversary = plan.single;
    runs.push_back(BatteryRun{
        plan.single->name(),
        std::move(run_batch(std::span<const Trial>(&t, 1), plan.batch)
                      .front())});
  } else {
    runs = run_standard_battery(g, protocol, plan.seed, plan.batch);
  }

  std::vector<RunReport> reports;
  reports.reserve(runs.size());
  for (const BatteryRun& run : runs) {
    const ExecutionResult& r = run.result;
    RunReport report;
    report.adversary = run.adversary;
    std::ostringstream os;
    describe_run(os, g, protocol, run.adversary, r);
    report.executed = true;
    report.status = std::string(status_name(r.status));
    if (r.ok()) {
      const auto out = protocol.output(r.board, g.node_count());
      report.correct = check(out, os);
    } else {
      os << "verdict    (no output: run not successful)\n";
    }
    report.summary = os.str();
    reports.push_back(std::move(report));
  }
  return reports;
}

std::vector<RunReport> run_build(const Graph& g, const RunPlan& plan,
                                 const ProtocolWithOutput<BuildOutput>& p) {
  return run_typed(p, g, plan, [&](const BuildOutput& out, std::ostringstream& os) {
    if (!out.has_value()) {
      os << "verdict    rejected (input outside promised class)\n";
      // Rejection is the *correct* answer when the input is truly outside.
      return true;
    }
    const bool exact = *out == g;
    os << "verdict    reconstructed " << out->edge_count() << " edges — "
       << (exact ? "exact" : "WRONG") << "\n";
    return exact;
  });
}

std::vector<RunReport> run_bfs(const Graph& g, const RunPlan& plan,
                               const ProtocolWithOutput<BfsProtocolOutput>& p) {
  // Computed once, not per run: the exhaustive plan invokes the check for
  // every schedule, and the reference forest only depends on g.
  const BfsForest ref = bfs_forest(g);
  const bool eob = is_even_odd_bipartite(g);
  return run_typed(p, g, plan,
                   [&g, ref, eob](const BfsProtocolOutput& out,
                                  std::ostringstream& os) {
                     if (!out.valid) {
                       os << "verdict    input reported invalid\n";
                       return !eob;
                     }
                     const bool ok = out.layer == ref.layer &&
                                     is_valid_bfs_forest(g, out.layer,
                                                         out.parent);
                     os << "verdict    BFS forest with " << out.roots.size()
                        << " roots — " << (ok ? "valid" : "WRONG") << "\n";
                     return ok;
                   });
}

/// Deliberately-broken negative-testing fixture (spec `broken-first:V`):
/// every node writes its ID, the output is the *first* writer's ID, and
/// validation expects node V — wrong on exactly the schedules where some
/// other node writes first. The lexicographically-smallest failing schedule
/// is known in closed form, which is what pins `--counterexample`.
class FirstWriterProtocol final : public SimAsyncProtocol<NodeId> {
 public:
  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override {
    return static_cast<std::size_t>(codec::id_bits(n));
  }
  [[nodiscard]] Bits compose_initial(const LocalView& view) const override {
    BitWriter w;
    return compose_initial(view, w);
  }
  [[nodiscard]] Bits compose_initial(const LocalView& view,
                                     BitWriter& w) const override {
    codec::write_id(w, view.id(), view.n());
    return w.take();
  }
  [[nodiscard]] NodeId output(const Whiteboard& board,
                              std::size_t n) const override {
    WB_REQUIRE_MSG(board.message_count() >= 1, "empty whiteboard");
    BitReader r(board.message(0));
    return codec::read_id(r, n);
  }
  [[nodiscard]] std::string name() const override { return "broken-first"; }
};

std::vector<RunReport> dispatch_spec(const std::string& spec, const Graph& g,
                                     const RunPlan& plan) {
  const auto parts = split_spec(spec);
  const std::string& kind = parts[0];
  const std::size_t n = g.node_count();

  if (kind == "build-forest") {
    return run_build(g, plan, BuildForestProtocol{});
  }
  if (kind == "build-degenerate") {
    WB_REQUIRE_MSG(parts.size() == 2, "expected build-degenerate:K");
    const int k = static_cast<int>(parse_u64(parts[1], "K"));
    return run_build(g, plan, BuildDegenerateProtocol{k});
  }
  if (kind == "build-full") {
    const BuildFullProtocol p;
    return run_typed(p, g, plan,
                     [&](const Graph& out, std::ostringstream& os) {
                       const bool exact = out == g;
                       os << "verdict    reconstructed " << out.edge_count()
                          << " edges — " << (exact ? "exact" : "WRONG") << "\n";
                       return exact;
                     });
  }
  if (kind == "mis") {
    WB_REQUIRE_MSG(parts.size() == 2, "expected mis:ROOT");
    const NodeId root = static_cast<NodeId>(parse_u64(parts[1], "root"));
    WB_REQUIRE_MSG(root >= 1 && root <= n, "root out of range");
    const RootedMisProtocol p(root);
    return run_typed(p, g, plan,
                     [&](const MisOutput& out, std::ostringstream& os) {
                       const bool ok = is_rooted_mis(g, out, root);
                       os << "verdict    |MIS| = " << out.size() << " — "
                          << (ok ? "valid rooted MIS" : "WRONG") << "\n";
                       return ok;
                     });
  }
  if (kind == "two-cliques" || kind == "rand-two-cliques") {
    const bool truth = is_two_cliques(g);  // once, not per schedule
    auto check = [truth](const TwoCliquesOutput& out, std::ostringstream& os) {
      os << "verdict    " << (out.yes ? "YES" : "NO") << " (truth: "
         << (truth ? "YES" : "NO") << ")\n";
      return out.yes == truth;
    };
    if (kind == "two-cliques") {
      return run_typed(TwoCliquesProtocol{}, g, plan, check);
    }
    WB_REQUIRE_MSG(parts.size() == 2, "expected rand-two-cliques:SEED");
    return run_typed(
        RandomizedTwoCliquesProtocol{parse_u64(parts[1], "seed")}, g, plan,
        check);
  }
  if (kind == "eob-bfs") {
    return run_bfs(g, plan, EobBfsProtocol{});
  }
  if (kind == "bipartite-bfs") {
    return run_bfs(g, plan, EobBfsProtocol{EobMode::kBipartiteNoCheck});
  }
  if (kind == "sync-bfs") {
    return run_bfs(g, plan, SyncBfsProtocol{});
  }
  if (kind == "subgraph") {
    WB_REQUIRE_MSG(parts.size() == 2, "expected subgraph:F");
    const std::size_t f = parse_u64(parts[1], "F");
    const SubgraphProtocol p(f);
    GraphBuilder expect_builder(n);  // reference subgraph: once, not per run
    for (const Edge& e : g.edges()) {
      if (e.u <= f && e.v <= f) expect_builder.add_edge(e.u, e.v);
    }
    const Graph expect = expect_builder.build();
    return run_typed(p, g, plan,
                     [&expect](const Graph& out, std::ostringstream& os) {
                       const bool ok = out == expect;
                       os << "verdict    prefix subgraph with "
                          << out.edge_count() << " edges — "
                          << (ok ? "exact" : "WRONG") << "\n";
                       return ok;
                     });
  }
  if (kind == "krz-triangle") {
    WB_REQUIRE_MSG(parts.size() == 3, "expected krz-triangle:NUM/DEN:SEED");
    const auto [num, den] = parse_prob(parts[1]);
    const KrzTriangleProtocol p(num, den, parse_u64(parts[2], "seed"));
    // The sampled subgraph is fixed by (graph, seed): compute the sampled
    // truth once — a triangle whose edges all survive sampling. The check
    // is exact agreement with *that*; the ε-error behavior (missing the
    // real triangle with probability 1 - q^3) shows up when the seed is
    // varied across statistical trials (tests/wb/faults_test.cpp).
    GraphBuilder sampled_builder(n);
    for (const Edge& e : g.edges()) {
      if (p.edge_sampled(e.u, e.v)) sampled_builder.add_edge(e.u, e.v);
    }
    const bool truth = has_triangle(sampled_builder.build());
    return run_typed(p, g, plan, [&, truth](bool out, std::ostringstream& os) {
      os << "verdict    " << (out ? "TRIANGLE" : "none")
         << " (sampled truth: " << (truth ? "TRIANGLE" : "none") << ")\n";
      return out == truth;
    });
  }
  if (kind == "triangle-oracle" || kind == "pair-chase") {
    const bool truth = has_triangle(g);
    if (kind == "triangle-oracle") {
      const TriangleOracleProtocol p;
      return run_typed(p, g, plan,
                       [&](bool out, std::ostringstream& os) {
                         os << "verdict    " << (out ? "TRIANGLE" : "none")
                            << " (truth: " << (truth ? "TRIANGLE" : "none")
                            << ")\n";
                         return out == truth;
                       });
    }
    const TrianglePairChaseProtocol p(0);
    return run_typed(p, g, plan,
                     [&](TriangleVerdict v, std::ostringstream& os) {
                       const char* verdict =
                           v == TriangleVerdict::kYes
                               ? "TRIANGLE"
                               : (v == TriangleVerdict::kNo ? "none"
                                                            : "unknown");
                       os << "verdict    " << verdict << " (truth: "
                          << (truth ? "TRIANGLE" : "none") << ")\n";
                       // Soundness requirement only: kYes must imply truth.
                       return v != TriangleVerdict::kYes || truth;
                     });
  }
  if (kind == "broken-first") {
    WB_REQUIRE_MSG(parts.size() == 2, "expected broken-first:V");
    const NodeId want = static_cast<NodeId>(parse_u64(parts[1], "V"));
    WB_REQUIRE_MSG(want >= 1 && want <= n, "V out of range");
    const FirstWriterProtocol p;
    return run_typed(p, g, plan,
                     [want](NodeId out, std::ostringstream& os) {
                       const bool ok = out == want;
                       os << "verdict    first writer " << out << " (want "
                          << want << ") — " << (ok ? "as planted" : "WRONG")
                          << "\n";
                       return ok;
                     });
  }
  if (kind == "anon-degree") {
    const AnonDegreeProtocol p;
    AnonDegreeOutput expect;  // sorted degree multiset: once, not per run
    expect.reserve(n);
    for (NodeId v = 1; v <= n; ++v) expect.push_back(g.degree(v));
    std::sort(expect.begin(), expect.end());
    return run_typed(p, g, plan,
                     [expect = std::move(expect)](const AnonDegreeOutput& out,
                                                  std::ostringstream& os) {
                       const bool ok = out == expect;
                       os << "verdict    " << out.size()
                          << " anonymous degrees — "
                          << (ok ? "exact multiset" : "WRONG") << "\n";
                       return ok;
                     });
  }
  if (kind == "spanning-forest") {
    const SpanningForestProtocol p;
    return run_typed(p, g, plan,
                     [&](const SpanningForestOutput& out,
                         std::ostringstream& os) {
                       const bool ok = is_spanning_forest_of(g, out);
                       os << "verdict    " << out.edges.size() << " tree edges, "
                          << out.components << " components, connected="
                          << (out.connected ? "yes" : "no") << " — "
                          << (ok ? "valid" : "WRONG") << "\n";
                       return ok;
                     });
  }
  if (kind == "square-oracle" || kind == "connectivity-oracle" ||
      kind == "diameter-oracle") {
    PropertyOracleProtocol p =
        kind == "square-oracle"
            ? square_oracle()
            : (kind == "connectivity-oracle"
                   ? connectivity_oracle()
                   : diameter_at_most_oracle(static_cast<int>(
                         parse_u64(parts.size() == 2 ? parts[1] : "3", "D"))));
    const bool truth =
        kind == "square-oracle"
            ? has_square(g)
            : (kind == "connectivity-oracle"
                   ? is_connected(g)
                   : (diameter(g) >= 0 &&
                      diameter(g) <= static_cast<int>(parse_u64(
                                         parts.size() == 2 ? parts[1] : "3",
                                         "D"))));
    return run_typed(p, g, plan, [&](bool out, std::ostringstream& os) {
      os << "verdict    " << (out ? "YES" : "NO") << " (truth: "
         << (truth ? "YES" : "NO") << ")\n";
      return out == truth;
    });
  }
  WB_REQUIRE_MSG(false,
                 "unknown protocol '" << kind << "'\n" << protocol_spec_help());
  return {};  // unreachable
}

}  // namespace

RunReport run_protocol_spec(const std::string& spec, const Graph& g,
                            Adversary& adversary) {
  RunPlan plan;
  plan.single = &adversary;
  return std::move(dispatch_spec(spec, g, plan).front());
}

std::vector<RunReport> run_protocol_spec_battery(const std::string& spec,
                                                 const Graph& g,
                                                 std::uint64_t seed,
                                                 const BatchOptions& opts) {
  RunPlan plan;
  plan.seed = seed;
  plan.batch = opts;
  return dispatch_spec(spec, g, plan);
}

RunReport run_protocol_spec_exhaustive(const std::string& spec, const Graph& g,
                                       const ExhaustiveRunOptions& opts) {
  RunPlan plan;
  plan.exhaustive = &opts;
  return std::move(dispatch_spec(spec, g, plan).front());
}

RunReport run_protocol_spec_exhaustive(const std::string& spec, const Graph& g,
                                       std::size_t threads,
                                       std::uint64_t max_executions) {
  ExhaustiveRunOptions opts;
  opts.threads = threads;
  opts.max_executions = max_executions;
  return run_protocol_spec_exhaustive(spec, g, opts);
}

std::vector<shard::ShardSpec> plan_protocol_spec_shards(
    const std::string& protocol_spec, const Graph& g, std::size_t shard_count,
    const shard::PlanOptions& opts) {
  std::vector<shard::ShardSpec> specs;
  ShardPlanRequest request;
  request.shard_count = shard_count;
  request.options = opts;
  request.protocol_spec = protocol_spec;
  request.out = &specs;
  RunPlan plan;
  plan.shard_plan = &request;
  (void)dispatch_spec(protocol_spec, g, plan);
  return specs;
}

shard::ShardResult run_protocol_spec_shard(const shard::ShardSpec& spec,
                                           std::size_t threads) {
  shard::ShardResult result;
  ShardRunRequest request;
  request.spec = &spec;
  request.threads = threads;
  request.out = &result;
  RunPlan plan;
  plan.shard_run = &request;
  (void)dispatch_spec(spec.protocol_spec, spec.graph, plan);
  return result;
}

std::string exhaustive_summary_lines(std::uint64_t executions,
                                     std::uint64_t engine_failures,
                                     std::uint64_t wrong_outputs,
                                     std::uint64_t distinct_boards,
                                     const DistinctConfig& distinct) {
  const std::uint64_t failures = engine_failures + wrong_outputs;
  std::ostringstream os;
  if (distinct.kind == DistinctKind::kExact) {
    os << "schedules  " << executions << " executions, " << distinct_boards
       << " distinct final boards\n";
  } else {
    os << "schedules  " << executions << " executions, ~" << distinct_boards
       << " distinct final boards (" << to_string(distinct) << ")\n";
  }
  os << "verdict    " << (executions - failures) << "/" << executions
     << " executions successful and correct\n";
  return os.str();
}

std::string statistical_summary_lines(const VerdictAccumulator& verdict) {
  return "schedules  " + std::to_string(verdict.trials()) +
         " sampled trials (statistical sweep)\nverdict    " +
         verdict_summary(verdict) + "\n";
}

std::string protocol_spec_help() {
  return "protocols: build-forest build-degenerate:K build-full mis:ROOT\n"
         "           two-cliques rand-two-cliques:SEED eob-bfs bipartite-bfs\n"
         "           sync-bfs subgraph:F triangle-oracle pair-chase\n"
         "           spanning-forest anon-degree square-oracle\n"
         "           diameter-oracle:D connectivity-oracle\n"
         "           krz-triangle:NUM/DEN:SEED\n"
         "           broken-first:V (negative-testing fixture: correct iff\n"
         "           node V writes first — for --counterexample)";
}

}  // namespace wb::cli
