#include "src/cli/runners.h"

#include <gtest/gtest.h>

#include <iterator>

#include "src/cli/spec.h"
#include "src/support/check.h"
#include "src/support/rng.h"
#include "tests/cli/report_lines.h"

namespace wb::cli {
namespace {

RunReport run(const std::string& graph, const std::string& protocol,
              const std::string& adversary = "first") {
  const Graph g = graph_from_spec(graph);
  auto adv = adversary_from_spec(adversary, g);
  return run_protocol_spec(protocol, g, *adv);
}

TEST(Runners, EveryProtocolSpecSmokeTest) {
  // (graph, protocol) pairs chosen so every runner validates successfully.
  const std::pair<const char*, const char*> cases[] = {
      {"forest:20:80:3", "build-forest"},
      {"kdeg:20:2:20:3", "build-degenerate:2"},
      {"gnp:12:1/3:5", "build-full"},
      {"cgnp:12:1/3:5", "mis:4"},
      {"twocliques:6", "two-cliques"},
      {"switched:6", "two-cliques"},
      {"twocliques:6", "rand-two-cliques:11"},
      {"ceob:14:1/4:2", "eob-bfs"},
      {"cycle:8", "bipartite-bfs"},
      {"cgnp:15:1/4:9", "sync-bfs"},
      {"gnp:14:1/2:1", "subgraph:5"},
      {"gnp:10:1/2:2", "triangle-oracle"},
      {"complete:5", "pair-chase"},
      {"gnp:16:1/8:4", "spanning-forest"},
      {"grid:3x3", "square-oracle"},
      {"star:8", "diameter-oracle:2"},
      {"cgnp:10:1/3:6", "connectivity-oracle"},
      {"twocliques:5", "connectivity-oracle"},
  };
  for (const auto& [graph, protocol] : cases) {
    const RunReport r = run(graph, protocol);
    EXPECT_TRUE(r.executed) << graph << " " << protocol;
    EXPECT_TRUE(r.correct) << graph << " " << protocol << "\n" << r.summary;
    EXPECT_FALSE(r.summary.empty());
  }
}

TEST(Runners, ExhaustiveSpecSweepsEverySchedule) {
  const Graph g = graph_from_spec("twocliques:3");  // 6 nodes, 6! schedules
  const RunReport serial = run_protocol_spec_exhaustive("two-cliques", g, 1);
  EXPECT_TRUE(serial.executed);
  EXPECT_TRUE(serial.correct) << serial.summary;
  EXPECT_EQ(serial.status, "success");
  EXPECT_NE(serial.summary.find("720 executions"), std::string::npos)
      << serial.summary;
  // Parallel sweeps must report the same totals as the serial oracle.
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    const RunReport par =
        run_protocol_spec_exhaustive("two-cliques", g, threads);
    EXPECT_TRUE(par.correct) << par.summary;
    EXPECT_NE(par.summary.find("720 executions"), std::string::npos)
        << par.summary;
  }
}

TEST(Runners, ExhaustiveSpecReportsFailures) {
  // C6 is not two cliques; the SIMSYNC protocol still answers NO correctly
  // on every schedule, so use a wrong-promise input for build-forest, whose
  // rejection is correct — instead check an actually failing pairing:
  // sync-bfs expects its gated activations; a deadlocking toy is not
  // reachable via specs, so assert the budget guard instead.
  const Graph g = graph_from_spec("cgnp:12:1/3:5");
  EXPECT_THROW(
      (void)run_protocol_spec_exhaustive("mis:4", g, 0, /*max_executions=*/10),
      LogicError);
}

TEST(Runners, CounterexampleFindsSmallestPrefixFailingSchedule) {
  // broken-first:1 is wrong on exactly the schedules where node 1 does not
  // write first; the lexicographically-smallest failing write order on
  // path:4 is therefore 2 1 3 4. The serial sweep stops right there; the
  // parallel sweep takes the minimum over all failures — both must report
  // the identical schedule.
  const Graph g = graph_from_spec("path:4");
  ExhaustiveRunOptions opts;
  opts.counterexample = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    opts.threads = threads;
    const RunReport r =
        run_protocol_spec_exhaustive("broken-first:1", g, opts);
    EXPECT_FALSE(r.correct) << "threads=" << threads;
    EXPECT_EQ(r.counterexample, "2 1 3 4") << "threads=" << threads;
    EXPECT_NE(r.summary.find("counterexample 2 1 3 4 (wrong-output)"),
              std::string::npos)
        << "threads=" << threads << "\n" << r.summary;
  }
}

TEST(Runners, CounterexampleEmptyWhenEveryScheduleIsCorrect) {
  const Graph g = graph_from_spec("twocliques:3");
  ExhaustiveRunOptions opts;
  opts.threads = 1;
  opts.counterexample = true;
  const RunReport r = run_protocol_spec_exhaustive("two-cliques", g, opts);
  EXPECT_TRUE(r.correct) << r.summary;
  EXPECT_TRUE(r.counterexample.empty());
  EXPECT_NE(r.summary.find("counterexample none"), std::string::npos)
      << r.summary;
  EXPECT_NE(r.summary.find("720 executions"), std::string::npos) << r.summary;
}

/// One row of the seeded differential table: a small graph spec (n <= 6)
/// and a zoo protocol spec that runs on it.
struct DifferentialRow {
  std::string graph;
  std::string protocol;
};

/// Draws `count` rows from a fixed seed; every fourth row is the
/// deliberately broken broken-first:V, so failing rows (and counterexamples)
/// are always present.
std::vector<DifferentialRow> draw_differential_rows(std::uint64_t seed,
                                                    std::size_t count) {
  static constexpr const char* kFamilies[] = {"path", "cycle", "star",
                                              "complete", "gnp"};
  static constexpr const char* kProtocols[] = {
      "build-forest",    "build-degenerate:2",  "build-full",
      "mis:1",           "two-cliques",         "rand-two-cliques:11",
      "eob-bfs",         "bipartite-bfs",       "sync-bfs",
      "subgraph:3",      "triangle-oracle",     "pair-chase",
      "spanning-forest", "anon-degree",         "square-oracle",
      "diameter-oracle:2", "connectivity-oracle", "krz-triangle:1/2:2"};
  Rng rng(seed);
  std::vector<DifferentialRow> rows;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t n = rng.range(3, 6);
    const std::string family = kFamilies[rng.below(std::size(kFamilies))];
    std::string graph = family + ":" + std::to_string(n);
    if (family == "gnp") graph += ":1/2:" + std::to_string(rng.range(1, 99));
    const std::string protocol =
        i % 4 == 3
            ? "broken-first:" + std::to_string(rng.range(1, n))
            : std::string(kProtocols[rng.below(std::size(kProtocols))]);
    rows.push_back({graph, protocol});
  }
  return rows;
}

/// The `counterexample ...` line of a --counterexample report.
std::string counterexample_line(const RunReport& r) {
  const auto begin = r.summary.find("\ncounterexample ");
  EXPECT_NE(begin, std::string::npos) << r.summary;
  return r.summary.substr(begin + 1,
                          r.summary.find('\n', begin + 1) - begin - 1);
}

TEST(Runners, ShardedSweepReproducesTheExhaustiveReportLines) {
  // A seeded differential table: on every drawn instance each backend —
  // threaded, fault-free fault sweeps, memoize, and shard plans at several
  // K, round-tripped through their text forms and merged in shuffled order —
  // must print the `schedules`/`verdict` lines of the exhaustive:1 oracle
  // byte for byte, which is what the CI smoke jobs diff across processes.
  Rng shuffle_rng(0x5eed);
  std::size_t failing_rows = 0;
  for (const DifferentialRow& row : draw_differential_rows(0xd1ff, 24)) {
    SCOPED_TRACE(row.graph + " " + row.protocol);
    const Graph g = graph_from_spec(row.graph);
    ExhaustiveRunOptions opts;
    opts.threads = 1;
    const RunReport oracle = run_protocol_spec_exhaustive(row.protocol, g, opts);
    const std::string want = report_lines(oracle);

    opts.threads = 4;
    EXPECT_EQ(report_lines(run_protocol_spec_exhaustive(row.protocol, g, opts)),
              want)
        << "exhaustive:4";
    opts.threads = 2;
    for (const FaultSpec& faults :
         {FaultSpec::Crash(0), FaultSpec::Corrupt(0, 1)}) {
      opts.faults = faults;
      EXPECT_EQ(
          report_lines(run_protocol_spec_exhaustive(row.protocol, g, opts)),
          want)
          << fault_spec_to_string(faults);
    }
    ExhaustiveRunOptions memo;
    memo.threads = 1;
    memo.memoize = true;
    EXPECT_EQ(report_lines(run_protocol_spec_exhaustive(row.protocol, g, memo)),
              want)
        << "memoize";

    for (const std::size_t k : {1, 3, 7}) {
      std::vector<shard::ShardResult> results;
      for (const auto& spec : plan_protocol_spec_shards(row.protocol, g, k)) {
        // Round-trip every artifact through its text form, as processes would.
        const auto parsed = shard::parse_shard_spec(shard::serialize(spec));
        results.push_back(shard::parse_shard_result(
            shard::serialize(run_protocol_spec_shard(parsed, /*threads=*/2))));
      }
      shuffle_rng.shuffle(results);
      const shard::MergedResult merged = shard::merge_shard_results(results);
      EXPECT_EQ(exhaustive_summary_lines(
                    merged.executions, merged.engine_failures,
                    merged.wrong_outputs, merged.distinct_boards,
                    merged.distinct),
                want + "\n")
          << "shards=" << k;
    }

    if (oracle.correct) continue;
    ++failing_rows;
    ExhaustiveRunOptions cx;
    cx.counterexample = true;
    cx.threads = 1;
    const RunReport serial = run_protocol_spec_exhaustive(row.protocol, g, cx);
    cx.threads = 4;
    const RunReport parallel =
        run_protocol_spec_exhaustive(row.protocol, g, cx);
    EXPECT_FALSE(serial.counterexample.empty());
    EXPECT_EQ(serial.counterexample, parallel.counterexample);
    EXPECT_EQ(counterexample_line(serial), counterexample_line(parallel));
  }
  EXPECT_GE(failing_rows, 6u);
}

TEST(Runners, HllExhaustiveReportMarksTheEstimateAndStaysDeterministic) {
  const Graph g = graph_from_spec("twocliques:3");  // 6 nodes, 720 schedules
  ExhaustiveRunOptions opts;
  opts.threads = 1;
  opts.distinct = DistinctConfig::Hll(14);
  const RunReport serial = run_protocol_spec_exhaustive("two-cliques", g, opts);
  EXPECT_TRUE(serial.correct) << serial.summary;
  EXPECT_NE(serial.summary.find("720 executions, ~"), std::string::npos)
      << serial.summary;
  EXPECT_NE(serial.summary.find("distinct final boards (hll:14)"),
            std::string::npos)
      << serial.summary;
  // The estimate line is bit-identical at any thread count.
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    opts.threads = threads;
    const RunReport par =
        run_protocol_spec_exhaustive("two-cliques", g, opts);
    EXPECT_EQ(par.summary.substr(par.summary.find("schedules")),
              serial.summary.substr(serial.summary.find("schedules")))
        << "threads=" << threads;
  }
  // The exact report is untouched by the hll machinery: no tilde marker.
  const RunReport exact = run_protocol_spec_exhaustive("two-cliques", g, 1);
  EXPECT_EQ(exact.summary.find("~"), std::string::npos) << exact.summary;
}

TEST(Runners, HllShardedSweepReproducesTheExhaustiveReportLines) {
  // Same contract as the exact version below, under distinct=hll:12: the
  // merged report lines must match the in-process sweep byte-for-byte.
  const Graph g = graph_from_spec("twocliques:3");
  ExhaustiveRunOptions opts;
  opts.threads = 1;
  opts.distinct = DistinctConfig::Hll(12);
  const RunReport serial = run_protocol_spec_exhaustive("two-cliques", g, opts);
  shard::PlanOptions plan;
  plan.distinct = DistinctConfig::Hll(12);
  const auto specs = plan_protocol_spec_shards("two-cliques", g, 3, plan);
  std::vector<shard::ShardResult> results;
  for (const auto& spec : specs) {
    const auto parsed = shard::parse_shard_spec(shard::serialize(spec));
    results.push_back(shard::parse_shard_result(
        shard::serialize(run_protocol_spec_shard(parsed, /*threads=*/2))));
  }
  const shard::MergedResult merged = shard::merge_shard_results(results);
  EXPECT_EQ(merged.executions, 720u);
  const std::string lines = exhaustive_summary_lines(
      merged.executions, merged.engine_failures, merged.wrong_outputs,
      merged.distinct_boards, merged.distinct);
  EXPECT_NE(serial.summary.find(lines), std::string::npos)
      << "serial:\n" << serial.summary << "merged lines:\n" << lines;
}

TEST(Runners, ShardedSweepCountsWrongOutputsLikeTheExhaustiveReport) {
  // The deliberately-broken fixture fails on a schedule-dependent subset;
  // sharded tallies must agree with the serial exhaustive report exactly.
  const Graph g = graph_from_spec("path:4");
  const RunReport serial =
      run_protocol_spec_exhaustive("broken-first:2", g, 1);
  const auto specs = plan_protocol_spec_shards("broken-first:2", g, 4);
  std::vector<shard::ShardResult> results;
  for (const auto& spec : specs) {
    results.push_back(run_protocol_spec_shard(spec, 1));
  }
  const shard::MergedResult merged = shard::merge_shard_results(results);
  const std::string lines = exhaustive_summary_lines(
      merged.executions, merged.engine_failures, merged.wrong_outputs,
      merged.distinct_boards);
  EXPECT_NE(serial.summary.find(lines), std::string::npos)
      << "serial:\n" << serial.summary << "merged lines:\n" << lines;
  EXPECT_GT(merged.wrong_outputs, 0u);
}

TEST(Runners, ReportsContainVitalSigns) {
  const RunReport r = run("forest:10:80:1", "build-forest", "random:3");
  EXPECT_NE(r.summary.find("protocol"), std::string::npos);
  EXPECT_NE(r.summary.find("status     success"), std::string::npos);
  EXPECT_NE(r.summary.find("board"), std::string::npos);
  EXPECT_NE(r.summary.find("verdict"), std::string::npos);
  EXPECT_EQ(r.status, "success");
}

TEST(Runners, RejectionIsACorrectAnswer) {
  // A cycle is not a forest: the builder must reject, and the runner counts
  // that as correct behaviour.
  const RunReport r = run("cycle:7", "build-forest");
  EXPECT_TRUE(r.correct);
  EXPECT_NE(r.summary.find("rejected"), std::string::npos);
}

TEST(Runners, DeadlockIsReportedNotValidated) {
  // triangle with tail deadlocks bipartite-bfs; correct=false, status tells.
  const Graph g = graph_from_spec("complete:3");
  GraphBuilder b(5);
  for (const Edge& e : g.edges()) b.add_edge(e.u, e.v);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  auto adv = adversary_from_spec("first", g);
  const Graph gg = b.build();
  auto adv2 = adversary_from_spec("first", gg);
  const RunReport r = run_protocol_spec("bipartite-bfs", gg, *adv2);
  EXPECT_TRUE(r.executed);
  EXPECT_FALSE(r.correct);
  EXPECT_EQ(r.status, "deadlock");
}

TEST(Runners, UnknownProtocolThrows) {
  const Graph g = graph_from_spec("path:4");
  auto adv = adversary_from_spec("first", g);
  EXPECT_THROW((void)run_protocol_spec("quantum-bfs", g, *adv), DataError);
}

TEST(Runners, BadArgumentsThrow) {
  const Graph g = graph_from_spec("path:4");
  auto adv = adversary_from_spec("first", g);
  EXPECT_THROW((void)run_protocol_spec("mis:9", g, *adv), DataError);  // root>n
  EXPECT_THROW((void)run_protocol_spec("build-degenerate", g, *adv),
               DataError);
}

}  // namespace
}  // namespace wb::cli
