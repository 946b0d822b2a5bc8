#include "src/wb/exhaustive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/cli/runners.h"
#include "src/cli/spec.h"
#include "src/graph/generators.h"
#include "src/protocols/anon_frontier.h"
#include "src/protocols/bfs_sync.h"
#include "src/protocols/mis.h"
#include "src/protocols/oracles.h"
#include "src/wb/faults.h"
#include "src/wb/memo_table.h"
#include "tests/cli/report_lines.h"
#include "tests/wb/test_protocols.h"

namespace wb {
namespace {

TEST(Exhaustive, SimultaneousProtocolExploresAllPermutations) {
  // In a simultaneous class every unwritten node is always a candidate, so
  // the schedules are exactly the n! write orders.
  const Graph g = path_graph(4);
  const testing::EchoIdProtocol p;
  std::set<std::vector<NodeId>> orders;
  const std::uint64_t visited = for_each_execution(
      g, p,
      [&](const ExecutionResult& r) {
        EXPECT_TRUE(r.ok());
        orders.insert(r.write_order);
        return true;
      });
  EXPECT_EQ(visited, 24u);
  EXPECT_EQ(orders.size(), 24u);
}

TEST(Exhaustive, SequentialProtocolHasSingleExecution) {
  const Graph g = path_graph(5);
  const testing::OnlyFirstNodeProtocol p;  // deadlocks after one write
  std::uint64_t visited = for_each_execution(g, p, [&](const ExecutionResult& r) {
    EXPECT_EQ(r.status, RunStatus::kDeadlock);
    return true;
  });
  EXPECT_EQ(visited, 1u);
}

TEST(Exhaustive, EarlyStopOnVisitorFalse) {
  const Graph g = path_graph(4);
  const testing::EchoIdProtocol p;
  std::uint64_t seen = 0;
  const std::uint64_t visited = for_each_execution(g, p, [&](const ExecutionResult&) {
    ++seen;
    return seen < 5;
  });
  EXPECT_EQ(visited, 5u);
}

TEST(Exhaustive, EarlyStopMidSubtreeCountsExactlyTheVisitedExecutions) {
  // Serial contract: stopping after the k-th visit returns exactly k, for
  // every stopping point — including mid-subtree, where pruned siblings must
  // not be counted.
  const Graph g = path_graph(4);  // 24 executions total
  const testing::EchoIdProtocol p;
  for (std::uint64_t k = 1; k <= 24; ++k) {
    std::uint64_t seen = 0;
    const std::uint64_t visited =
        for_each_execution(g, p, [&](const ExecutionResult&) {
          ++seen;
          return seen < k;
        });
    EXPECT_EQ(visited, k) << "stop after visit " << k;
    EXPECT_EQ(seen, k);
  }
}

TEST(Exhaustive, BudgetGuardThrows) {
  const Graph g = path_graph(5);
  const testing::EchoIdProtocol p;
  ExhaustiveOptions opts;
  opts.max_executions = 10;  // 5! = 120 > 10
  EXPECT_THROW(
      for_each_execution(g, p, [](const ExecutionResult&) { return true; },
                         opts),
      LogicError);
}

TEST(Exhaustive, AllExecutionsOkAggregates) {
  const Graph g = path_graph(4);
  const testing::EchoIdProtocol echo;
  EXPECT_TRUE(all_executions_ok(
      g, echo, [](const ExecutionResult& r) { return r.ok(); }));
  const testing::OnlyFirstNodeProtocol deadlocker;
  EXPECT_FALSE(all_executions_ok(
      g, deadlocker, [](const ExecutionResult&) { return true; }));
}

// Everything observable about one execution, for equivalence checking.
struct Signature {
  RunStatus status = RunStatus::kProtocolError;
  std::vector<NodeId> write_order;
  std::vector<std::string> board;  // byte-per-bit message strings
  std::vector<std::size_t> activation_round;
  std::vector<std::size_t> write_round;
  std::size_t rounds = 0;
  std::string error;

  friend bool operator==(const Signature&, const Signature&) = default;
};

Signature signature_of(const ExecutionResult& r) {
  Signature s;
  s.status = r.status;
  s.write_order = r.write_order;
  for (const Bits& m : r.board.messages()) {
    std::string bits;
    for (std::size_t i = 0; i < m.size(); ++i) {
      bits.push_back(m.bit(i) ? '1' : '0');
    }
    s.board.push_back(std::move(bits));
  }
  s.activation_round = r.stats.activation_round;
  s.write_round = r.stats.write_round;
  s.rounds = r.stats.rounds;
  s.error = r.error;
  return s;
}

// The pre-backtracking explorer: depth-first with a full EngineState copy at
// every branch. Kept here as the reference semantics the production explorer
// must reproduce execution-for-execution, in order.
void reference_explore(EngineState s, std::vector<Signature>& out) {
  s.begin_round();
  if (s.terminal()) {
    out.push_back(signature_of(s.finish()));
    return;
  }
  const std::size_t n_cands = s.candidates().size();
  if (n_cands == 1) {
    s.write(0);
    reference_explore(std::move(s), out);
    return;
  }
  for (std::size_t i = 0; i < n_cands; ++i) {
    EngineState branch = s;
    branch.write(i);
    reference_explore(std::move(branch), out);
  }
}

void expect_same_execution_sequence(const Graph& g, const Protocol& p) {
  std::vector<Signature> reference;
  reference_explore(EngineState(g, p), reference);

  std::vector<Signature> actual;
  const std::uint64_t visited =
      for_each_execution(g, p, [&](const ExecutionResult& r) {
        actual.push_back(signature_of(r));
        return true;
      });

  ASSERT_EQ(visited, reference.size()) << p.name();
  ASSERT_EQ(actual.size(), reference.size()) << p.name();
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(actual[i], reference[i]) << p.name() << " execution " << i;
  }
}

TEST(ExhaustiveEquivalence, BacktrackerMatchesCopyBasedDfs) {
  const Graph path4 = path_graph(4);
  const Graph star4 = star_graph(4);
  const Graph kb22 = complete_bipartite(2, 2);

  // Asynchronous classes (messages frozen at activation).
  const testing::EchoIdProtocol echo;           // SIMASYNC
  const testing::FrozenBoardSizeProtocol frozen;  // SIMASYNC, equal messages
  const testing::OnlyFirstNodeProtocol deadlocker;  // ASYNC, deadlocks
  for (const Graph* g : {&path4, &star4, &kb22}) {
    expect_same_execution_sequence(*g, echo);
    expect_same_execution_sequence(*g, frozen);
    expect_same_execution_sequence(*g, deadlocker);
  }

  // Synchronous classes (memories recomposed every round — stresses the
  // rewind of per-round recompositions).
  const testing::BoardSizeProtocol board_size;  // SIMSYNC
  const SyncBfsProtocol bfs;                    // SYNC, gated activations
  for (const Graph* g : {&path4, &star4, &kb22}) {
    expect_same_execution_sequence(*g, board_size);
    expect_same_execution_sequence(*g, bfs);
  }
}

// Reference implementation of distinct-final-board counting with
// byte-per-bit string keys (the pre-hash data structure).
std::uint64_t count_distinct_boards_by_string(const Graph& g,
                                              const Protocol& p) {
  std::set<std::string> boards;
  for_each_execution(g, p, [&](const ExecutionResult& r) {
    std::string key;
    for (const Bits& b : r.board.messages()) {
      key.push_back('|');
      for (std::size_t i = 0; i < b.size(); ++i) {
        key.push_back(b.bit(i) ? '1' : '0');
      }
    }
    boards.insert(std::move(key));
    return true;
  });
  return static_cast<std::uint64_t>(boards.size());
}

TEST(Exhaustive, HashKeyedDistinctBoardsMatchesStringKeys) {
  const testing::EchoIdProtocol echo;
  const testing::FrozenBoardSizeProtocol frozen;
  const testing::BoardSizeProtocol board_size;
  const SyncBfsProtocol bfs;
  const std::vector<const Protocol*> protocols = {&echo, &frozen, &board_size,
                                                  &bfs};
  const std::vector<Graph> graphs = {path_graph(4), star_graph(4),
                                     complete_bipartite(2, 2), cycle_graph(4)};
  for (const Protocol* p : protocols) {
    for (const Graph& g : graphs) {
      EXPECT_EQ(count_distinct_final_boards(g, *p),
                count_distinct_boards_by_string(g, *p))
          << p->name() << " on n=" << g.node_count();
    }
  }
}

TEST(Exhaustive, RetainedBoardSnapshotsSurviveBacktracking) {
  // A visitor may keep the O(1) board snapshot beyond the visit; the
  // explorer then backtracks the shared storage underneath it. Copy-on-write
  // must keep every retained snapshot bit-exact.
  const Graph g = path_graph(4);
  const testing::EchoIdProtocol p;
  std::vector<Whiteboard> boards;
  std::vector<std::vector<NodeId>> orders;
  for_each_execution(g, p, [&](const ExecutionResult& r) {
    boards.push_back(r.board);
    orders.push_back(r.write_order);
    return true;
  });
  ASSERT_EQ(boards.size(), 24u);
  for (std::size_t e = 0; e < boards.size(); ++e) {
    ASSERT_EQ(boards[e].message_count(), 4u) << "execution " << e;
    for (std::size_t i = 0; i < 4; ++i) {
      BitReader r(boards[e].message(i));
      EXPECT_EQ(codec::read_id(r, 4), orders[e][i])
          << "execution " << e << " message " << i;
    }
  }
}

TEST(Exhaustive, DistinctBoardsCountsOrderSensitivity) {
  // EchoId messages differ per node, so each of the 3! orders yields a
  // distinct board.
  const Graph g = path_graph(3);
  const testing::EchoIdProtocol p;
  EXPECT_EQ(count_distinct_final_boards(g, p), 6u);
  // FrozenBoardSize writes six identical "0" messages: one distinct board.
  const testing::FrozenBoardSizeProtocol frozen;
  EXPECT_EQ(count_distinct_final_boards(g, frozen), 1u);
}

// ---------------------------------------------------------------------------
// Parallel exploration: the threads=1 run above is the reference oracle;
// every other thread count must visit the same execution *set* with a
// bit-identical total, agree on every aggregate, and propagate early exits
// and exceptions.

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

ExhaustiveOptions with_threads(std::size_t threads) {
  ExhaustiveOptions opts;
  opts.threads = threads;
  return opts;
}

// Canonical (sorted) multiset of execution signatures.
std::vector<std::string> sorted_signature_keys(const Graph& g,
                                               const Protocol& p,
                                               const ExhaustiveOptions& opts) {
  std::mutex mu;
  std::vector<std::string> keys;
  for_each_execution(
      g, p,
      [&](const ExecutionResult& r) {
        const Signature s = signature_of(r);
        std::string key;
        key += std::to_string(static_cast<int>(s.status));
        for (const NodeId v : s.write_order) key += "," + std::to_string(v);
        key += "|";
        for (const std::string& m : s.board) key += m + "/";
        key += "|" + std::to_string(s.rounds);
        for (const std::size_t a : s.activation_round) {
          key += ";" + std::to_string(a);
        }
        const std::lock_guard<std::mutex> lock(mu);
        keys.push_back(std::move(key));
        return true;
      },
      opts);
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(ExhaustiveParallel, VisitSetAndCountMatchSerialOracleAtEveryThreadCount) {
  const Graph path4 = path_graph(4);
  const Graph star4 = star_graph(4);
  const Graph kb22 = complete_bipartite(2, 2);

  const testing::EchoIdProtocol echo;              // SIMASYNC
  const testing::FrozenBoardSizeProtocol frozen;   // SIMASYNC, equal messages
  const testing::OnlyFirstNodeProtocol deadlocker; // ASYNC, deadlocks
  const testing::BoardSizeProtocol board_size;     // SIMSYNC
  const SyncBfsProtocol bfs;                       // SYNC, gated activations
  const std::vector<const Protocol*> protocols = {&echo, &frozen, &deadlocker,
                                                  &board_size, &bfs};
  for (const Graph* g : {&path4, &star4, &kb22}) {
    for (const Protocol* p : protocols) {
      const std::vector<std::string> reference =
          sorted_signature_keys(*g, *p, with_threads(1));
      for (const std::size_t threads : kThreadCounts) {
        const std::vector<std::string> actual =
            sorted_signature_keys(*g, *p, with_threads(threads));
        EXPECT_EQ(actual, reference)
            << p->name() << " on n=" << g->node_count() << " threads="
            << threads;
      }
    }
  }
}

TEST(ExhaustiveParallel, DistinctBoardCountsBitIdenticalAtEveryThreadCount) {
  const testing::EchoIdProtocol echo;
  const testing::BoardSizeProtocol board_size;
  const SyncBfsProtocol bfs;
  const std::vector<const Protocol*> protocols = {&echo, &board_size, &bfs};
  const std::vector<Graph> graphs = {path_graph(5), star_graph(4),
                                     complete_bipartite(2, 2), cycle_graph(4)};
  for (const Protocol* p : protocols) {
    for (const Graph& g : graphs) {
      const std::uint64_t reference =
          count_distinct_final_boards(g, *p, with_threads(1));
      for (const std::size_t threads : kThreadCounts) {
        EXPECT_EQ(count_distinct_final_boards(g, *p, with_threads(threads)),
                  reference)
            << p->name() << " on n=" << g.node_count() << " threads="
            << threads;
      }
    }
  }
}

TEST(ExhaustiveParallel, HllDistinctCountsBitIdenticalAtEveryThreadCount) {
  // The approximate accumulator rides the same per-task/merge shape as the
  // exact one, so its estimate must be just as thread-count independent —
  // and, with far fewer distinct boards than registers, essentially exact.
  const testing::EchoIdProtocol echo;
  const testing::BoardSizeProtocol board_size;
  const std::vector<const Protocol*> protocols = {&echo, &board_size};
  const std::vector<Graph> graphs = {path_graph(5), star_graph(4)};
  for (const Protocol* p : protocols) {
    for (const Graph& g : graphs) {
      const std::uint64_t exact =
          count_distinct_final_boards(g, *p, with_threads(1));
      ExhaustiveOptions opts = with_threads(1);
      opts.distinct = DistinctConfig::Hll(14);
      const std::uint64_t reference = count_distinct_final_boards(g, *p, opts);
      // n! distinct boards at n <= 5 sit deep in the sketch's
      // linear-counting regime: the estimate should not be off by more than
      // a rounding step.
      EXPECT_NEAR(static_cast<double>(reference), static_cast<double>(exact),
                  std::max(1.0, 0.01 * static_cast<double>(exact)))
          << p->name() << " on n=" << g.node_count();
      for (const std::size_t threads : kThreadCounts) {
        opts = with_threads(threads);
        opts.distinct = DistinctConfig::Hll(14);
        EXPECT_EQ(count_distinct_final_boards(g, *p, opts), reference)
            << p->name() << " on n=" << g.node_count() << " threads="
            << threads;
      }
    }
  }
}

TEST(ExhaustiveParallel, AllExecutionsOkVerdictDeterministic) {
  const Graph g = path_graph(5);
  const testing::EchoIdProtocol echo;
  const testing::OnlyFirstNodeProtocol deadlocker;
  for (const std::size_t threads : kThreadCounts) {
    EXPECT_TRUE(all_executions_ok(
        g, echo, [](const ExecutionResult& r) { return r.ok(); },
        with_threads(threads)))
        << "threads=" << threads;
    EXPECT_FALSE(all_executions_ok(
        g, deadlocker, [](const ExecutionResult&) { return true; },
        with_threads(threads)))
        << "threads=" << threads;
  }
}

TEST(ExhaustiveParallel, EarlyStopCountEqualsVisitorInvocationsExactly) {
  // Parallel early-stop contract: the return value is *exactly* the number
  // of visitor invocations (workers already mid-visit finish and are
  // counted), and the stop flag prunes the remainder of the sweep.
  const Graph g = path_graph(5);  // 120 executions
  const testing::EchoIdProtocol p;
  for (const std::size_t threads : kThreadCounts) {
    std::atomic<std::uint64_t> invocations{0};
    const std::uint64_t visited = for_each_execution(
        g, p,
        [&](const ExecutionResult&) {
          return invocations.fetch_add(1, std::memory_order_relaxed) + 1 < 5;
        },
        with_threads(threads));
    EXPECT_EQ(visited, invocations.load()) << "threads=" << threads;
    EXPECT_GE(visited, 5u) << "threads=" << threads;
    EXPECT_LT(visited, 120u) << "early stop did not prune, threads="
                             << threads;
  }
}

TEST(ExhaustiveParallel, BudgetGuardThrowsAtEveryThreadCount) {
  const Graph g = path_graph(5);  // 120 > 10
  const testing::EchoIdProtocol p;
  for (const std::size_t threads : kThreadCounts) {
    ExhaustiveOptions opts = with_threads(threads);
    opts.max_executions = 10;
    EXPECT_THROW(
        for_each_execution(g, p, [](const ExecutionResult&) { return true; },
                           opts),
        LogicError)
        << "threads=" << threads;
    // And a budget that exactly fits must never throw.
    opts.max_executions = 120;
    EXPECT_EQ(for_each_execution(
                  g, p, [](const ExecutionResult&) { return true; }, opts),
              120u)
        << "threads=" << threads;
  }
}

TEST(ExhaustiveParallel, VisitorExceptionPropagatesAndCancelsSiblings) {
  const Graph g = path_graph(5);
  const testing::EchoIdProtocol p;
  for (const std::size_t threads : kThreadCounts) {
    std::atomic<std::uint64_t> invocations{0};
    EXPECT_THROW(
        for_each_execution(
            g, p,
            [&](const ExecutionResult&) -> bool {
              const std::uint64_t n =
                  invocations.fetch_add(1, std::memory_order_relaxed) + 1;
              if (n == 3) throw std::runtime_error("visitor bailed");
              return n < 3;  // racing visits also halt their own subtree
            },
            with_threads(threads)),
        std::runtime_error)
        << "threads=" << threads;
    EXPECT_LT(invocations.load(), 120u)
        << "exception did not cancel siblings, threads=" << threads;
  }
}

TEST(ExhaustiveParallel, RetainedBoardSnapshotsSurviveParallelBacktracking) {
  // The copy-on-write guarantee of the serial explorer must survive the
  // parallel one: snapshots retained by a (thread-safe) visitor stay
  // bit-exact while per-worker engines backtrack underneath them.
  const Graph g = path_graph(4);
  const testing::EchoIdProtocol p;
  std::mutex mu;
  std::vector<Whiteboard> boards;
  std::vector<std::vector<NodeId>> orders;
  const std::uint64_t visited = for_each_execution(
      g, p,
      [&](const ExecutionResult& r) {
        const std::lock_guard<std::mutex> lock(mu);
        boards.push_back(r.board);
        orders.push_back(r.write_order);
        return true;
      },
      with_threads(4));
  ASSERT_EQ(visited, 24u);
  ASSERT_EQ(boards.size(), 24u);
  for (std::size_t e = 0; e < boards.size(); ++e) {
    ASSERT_EQ(boards[e].message_count(), 4u) << "execution " << e;
    for (std::size_t i = 0; i < 4; ++i) {
      BitReader r(boards[e].message(i));
      EXPECT_EQ(codec::read_id(r, 4), orders[e][i])
          << "execution " << e << " message " << i;
    }
  }
}

}  // namespace
}  // namespace wb

// ---- the memoized enumerator against the serial oracle ----
//
// Driven through the CLI runner so the pins cover the report bytes CI diffs.

namespace wb::cli {
namespace {

TEST(MemoizedSweep, MemoizedSweepIsBitIdenticalToTheOracle) {
  // anon-degree on a star: all leaves share one degree, so schedules
  // converge factorially and the memo actually collapses the tree. The
  // report must not change by a byte.
  const Graph g = graph_from_spec("star:7");
  ExhaustiveRunOptions plain;
  plain.threads = 1;
  ExhaustiveRunOptions memo = plain;
  memo.memoize = true;
  const RunReport oracle = run_protocol_spec_exhaustive("anon-degree", g, plain);
  const RunReport memoized =
      run_protocol_spec_exhaustive("anon-degree", g, memo);
  EXPECT_EQ(memoized.executions, oracle.executions);
  EXPECT_EQ(memoized.engine_failures, oracle.engine_failures);
  EXPECT_EQ(memoized.wrong_outputs, oracle.wrong_outputs);
  EXPECT_EQ(report_lines(memoized), report_lines(oracle));
  EXPECT_NE(memoized.summary.find("memoize"), std::string::npos)
      << memoized.summary;
  EXPECT_NE(memoized.summary.find("memo hits"), std::string::npos)
      << memoized.summary;
  EXPECT_EQ(oracle.summary.find("memoize"), std::string::npos)
      << oracle.summary;
}

TEST(MemoizedSweep, MemoizationCollapsesConvergingSchedules) {
  // Direct sweep_memoized accounting: 7! = 5040 executions but far fewer
  // distinct states, because the anonymous messages erase write order.
  const Graph g = graph_from_spec("star:7");
  const AnonDegreeProtocol p;
  ExhaustiveOptions opts;
  const MemoizedTotals t =
      sweep_memoized(g, p, [](const ExecutionResult&) { return true; }, opts);
  EXPECT_EQ(t.executions, 5040u);
  EXPECT_EQ(t.engine_failures, 0u);
  EXPECT_EQ(t.wrong_outputs, 0u);
  EXPECT_GT(t.memo_hits, 0u);
  EXPECT_LT(t.states_explored, t.executions);
  EXPECT_LT(t.terminals_visited, t.executions);
}

TEST(MemoizedSweep, MemoizationIsIdentityOnSignedProtocols) {
  // two-cliques signs every message with write_id: no two schedules
  // converge, the memo never hits, and the totals are still identical.
  const Graph g = graph_from_spec("twocliques:3");
  ExhaustiveRunOptions plain;
  plain.threads = 1;
  ExhaustiveRunOptions memo = plain;
  memo.memoize = true;
  const RunReport oracle = run_protocol_spec_exhaustive("two-cliques", g, plain);
  const RunReport memoized =
      run_protocol_spec_exhaustive("two-cliques", g, memo);
  EXPECT_EQ(report_lines(memoized), report_lines(oracle));
  EXPECT_EQ(memoized.executions, 720u);
}

TEST(MemoizedSweep, MemoizedHllDistinctMatchesTheOracle) {
  const Graph g = graph_from_spec("star:6");
  ExhaustiveRunOptions plain;
  plain.threads = 1;
  plain.distinct = DistinctConfig::Hll(12);
  ExhaustiveRunOptions memo = plain;
  memo.memoize = true;
  const RunReport oracle = run_protocol_spec_exhaustive("anon-degree", g, plain);
  const RunReport memoized =
      run_protocol_spec_exhaustive("anon-degree", g, memo);
  EXPECT_EQ(report_lines(memoized), report_lines(oracle));
  EXPECT_NE(memoized.summary.find("(hll:12)"), std::string::npos)
      << memoized.summary;
}

TEST(MemoizedSweep, MemoizedBudgetThrowsExactlyWhenTheOracleWould) {
  const Graph g = graph_from_spec("star:7");  // 5040 schedules
  ExhaustiveRunOptions memo;
  memo.threads = 1;
  memo.memoize = true;
  memo.max_executions = 100;
  EXPECT_THROW((void)run_protocol_spec_exhaustive("anon-degree", g, memo),
               BudgetExceededError);
  // At exactly the schedule count, both sweeps complete.
  memo.max_executions = 5040;
  const RunReport r = run_protocol_spec_exhaustive("anon-degree", g, memo);
  EXPECT_EQ(r.executions, 5040u);
}

/// n! / prod(multiplicity!) over g's degree multiset: the number of distinct
/// orders in which anonymous degrees can be written, hence anon-degree's
/// distinct final boards.
std::uint64_t degree_permutations(const Graph& g) {
  std::map<std::size_t, std::uint64_t> multiplicity;
  std::uint64_t count = 1;
  for (NodeId v = 1; v <= g.node_count(); ++v) {
    // Multiplying by v / (occurrences so far) keeps every step integral.
    count = count * v / ++multiplicity[g.degree(v)];
  }
  return count;
}

TEST(MemoizedSweep, MemoizedReportLinesMatchTheOracleTable) {
  // Activation-gated SYNC protocols (real activation predicates, deadlocks,
  // variable-width messages), a NO instance, converging anonymous boards,
  // and a fixture that is wrong on most schedules, which pins the
  // wrong-output accounting.
  struct Row {
    const char* graph;
    const char* protocol;
    std::uint64_t wrong_outputs;
    std::uint64_t degree_permutations = 0;  // anon-degree rows only
  };
  const Row rows[] = {
      {"cgnp:8:1/2:3", "sync-bfs", 0},
      {"twocliques:3", "spanning-forest", 0},
      {"path:5", "spanning-forest", 0},
      {"switched:3", "two-cliques", 0},
      {"path:4", "mis:1", 0},
      {"star:5", "anon-degree", 0, 5},
      {"cycle:6", "anon-degree", 0, 1},
      {"grid:3x3", "anon-degree", 0, 630},
      // Wrong unless node 2 writes first: 18 of the 4! schedules.
      {"complete:4", "broken-first:2", 18},
  };
  for (const Row& row : rows) {
    const std::string label = std::string(row.graph) + " " + row.protocol;
    const Graph g = graph_from_spec(row.graph);
    ExhaustiveRunOptions plain;
    plain.threads = 1;
    ExhaustiveRunOptions memo = plain;
    memo.memoize = true;
    const RunReport oracle =
        run_protocol_spec_exhaustive(row.protocol, g, plain);
    const RunReport memoized =
        run_protocol_spec_exhaustive(row.protocol, g, memo);
    EXPECT_EQ(report_lines(memoized), report_lines(oracle)) << label;
    EXPECT_EQ(memoized.executions, oracle.executions) << label;
    EXPECT_EQ(memoized.engine_failures, oracle.engine_failures) << label;
    EXPECT_EQ(memoized.wrong_outputs, row.wrong_outputs) << label;
    EXPECT_EQ(oracle.wrong_outputs, row.wrong_outputs) << label;
    if (row.degree_permutations != 0) {
      EXPECT_EQ(degree_permutations(g), row.degree_permutations) << label;
      EXPECT_NE(report_lines(memoized).find(
                    ", " + std::to_string(row.degree_permutations) +
                    " distinct final boards"),
                std::string::npos)
          << label << "\n" << memoized.summary;
    }
  }
}

/// SIMASYNC: every node writes its degree, anonymously, so schedules that
/// differ only in the order of equal-degree nodes converge and the memo
/// collapses them. The decoder rejects (DataError) every board whose first
/// message is the maximum degree; otherwise the output is the second
/// message's degree.
class RejectsHubFirstProtocol final : public SimAsyncProtocol<std::uint64_t> {
 public:
  [[nodiscard]] std::size_t message_bit_limit(std::size_t) const override {
    return 8;
  }
  [[nodiscard]] Bits compose_initial(const LocalView& view) const override {
    BitWriter w;
    w.write_uint(view.degree(), 8);
    return w.take();
  }
  [[nodiscard]] std::uint64_t output(const Whiteboard& board,
                                     std::size_t) const override {
    std::vector<std::uint64_t> degrees;
    for (const Bits& m : board.messages()) {
      BitReader r(m);
      degrees.push_back(r.read_uint(8));
    }
    WB_REQUIRE_MSG(
        degrees.front() != *std::max_element(degrees.begin(), degrees.end()),
        "board opens with the maximum degree");
    return degrees[1];
  }
  [[nodiscard]] std::string name() const override {
    return "rejects-hub-first";
  }
};

TEST(MemoizedSweep, DecoderErrorsCountAsEngineFailuresLikeTheEnumerator) {
  // star:5 has 5! = 120 schedules. The hub writes first on 24 of them (the
  // decoder throws) and second on 24 (the judge says wrong).
  const Graph g = graph_from_spec("star:5");
  const RejectsHubFirstProtocol p;
  const auto judge = [&p](const ExecutionResult& r) {
    return p.output(r.board, 5) != 4;
  };
  ExhaustiveOptions opts;
  opts.threads = 1;
  const MemoizedTotals memo = sweep_memoized(g, p, judge, opts);

  // The enumerator judges through the fault classifier, which counts a
  // decoder's DataError as an engine failure.
  const FaultClassifier classify = [&judge](const ExecutionResult& r,
                                            std::span<const NodeId>) {
    if (!r.ok()) return FaultVerdict::kDeadlockOrFault;
    try {
      return judge(r) ? FaultVerdict::kCorrect : FaultVerdict::kWrongOutput;
    } catch (const DataError&) {
      return FaultVerdict::kDeadlockOrFault;
    }
  };
  const SweepTotals oracle =
      sweep_faulty_executions(g, p, FaultSpec{}, classify, opts);

  EXPECT_EQ(memo.executions, 120u);
  EXPECT_EQ(memo.engine_failures, 24u);
  EXPECT_EQ(memo.wrong_outputs, 24u);
  EXPECT_GT(memo.memo_hits, 0u);
  EXPECT_EQ(exhaustive_summary_lines(memo.executions, memo.engine_failures,
                                     memo.wrong_outputs, memo.distinct),
            exhaustive_summary_lines(oracle.executions, oracle.engine_failures,
                                     oracle.wrong_outputs,
                                     oracle.distinct->estimate()));
}

}  // namespace
}  // namespace wb::cli

// ---- claimed compose locality: the journaling round against the oracle ----
//
// The journaling round skips the recompose of a synchronous memory that a
// protocol's compose_neighbor_local claim proves unchanged. Every protocol
// that makes the claim is swept here twice, as itself and inside
// testing::ClaimFreeProtocol (which claims nothing, so every memory is
// recomposed every round); the visit sequences, the report lines and the
// memo walk's accounting must all be equal.

namespace wb {
namespace {

std::vector<Signature> visit_sequence(const Graph& g, const Protocol& p) {
  std::vector<Signature> visits;
  (void)for_each_execution(g, p, [&](const ExecutionResult& r) {
    visits.push_back(signature_of(r));
    return true;
  });
  return visits;
}

/// A judge shared by both sides: a decoded output is correct, a decoder
/// DataError an engine failure (as in the CLI's classifier).
template <typename P>
FaultClassifier decode_classifier(const P& p, std::size_t n) {
  return [&p, n](const ExecutionResult& r, std::span<const NodeId>) {
    if (!r.ok()) return FaultVerdict::kDeadlockOrFault;
    try {
      (void)p.output(r.board, n);
      return FaultVerdict::kCorrect;
    } catch (const DataError&) {
      return FaultVerdict::kDeadlockOrFault;
    }
  };
}

std::string report_of(const SweepTotals& t) {
  return cli::exhaustive_summary_lines(t.executions, t.engine_failures,
                                       t.wrong_outputs,
                                       t.distinct->estimate());
}

template <typename P>
void expect_claim_matches_claim_free(const P& p) {
  ASSERT_TRUE(p.frontier_locality().compose_neighbor_local) << p.name();
  ASSERT_FALSE(is_asynchronous(p.model_class())) << p.name();
  const testing::ClaimFreeProtocol claim_free(p);
  const std::vector<Graph> graphs = {
      path_graph(4),  cycle_graph(5),    star_graph(5),
      complete_graph(4), grid_graph(2, 3), random_tree(6, 3),
      two_cliques(2), erdos_renyi(6, 1, 2, 17)};
  for (const Graph& g : graphs) {
    const std::string row = p.name() + " n=" +
                            std::to_string(g.node_count()) +
                            " m=" + std::to_string(g.edge_count());
    const std::vector<Signature> claimed = visit_sequence(g, p);
    ASSERT_FALSE(claimed.empty()) << row;
    EXPECT_TRUE(claimed == visit_sequence(g, claim_free)) << row;

    const FaultClassifier classify = decode_classifier(p, g.node_count());
    EXPECT_EQ(report_of(sweep_faulty_executions(g, p, FaultSpec{}, classify)),
              report_of(sweep_faulty_executions(g, claim_free, FaultSpec{},
                                                classify)))
        << row;

    const auto judge = [&](const ExecutionResult& r) {
      return classify(r, {}) == FaultVerdict::kCorrect;
    };
    const MemoizedTotals a = sweep_memoized(g, p, judge);
    const MemoizedTotals b = sweep_memoized(g, claim_free, judge);
    EXPECT_EQ(a.executions, b.executions) << row;
    EXPECT_EQ(a.engine_failures, b.engine_failures) << row;
    EXPECT_EQ(a.wrong_outputs, b.wrong_outputs) << row;
    EXPECT_EQ(a.distinct, b.distinct) << row;
    EXPECT_EQ(a.states_explored, b.states_explored) << row;
    EXPECT_EQ(a.memo_hits, b.memo_hits) << row;
    EXPECT_EQ(a.terminals_visited, b.terminals_visited) << row;
  }
}

TEST(ClaimedLocality, RootedMisMatchesTheClaimFreeOracle) {
  expect_claim_matches_claim_free(RootedMisProtocol(1));
  expect_claim_matches_claim_free(RootedMisProtocol(3));
}

TEST(ClaimedLocality, SyncBfsMatchesTheClaimFreeOracle) {
  expect_claim_matches_claim_free(SyncBfsProtocol{});
}

TEST(ClaimedLocality, AnonDegreeMatchesTheClaimFreeOracle) {
  expect_claim_matches_claim_free(AnonDegreeProtocol{});
}

TEST(ClaimedLocality, SpanningForestMatchesTheClaimFreeOracle) {
  expect_claim_matches_claim_free(SpanningForestProtocol{});
}

TEST(ClaimedLocality, GossipCountMatchesTheClaimFreeOracle) {
  expect_claim_matches_claim_free(testing::GossipCountProtocol{});
}

// ---- the memo walk's state key ----

/// memo_key() as first defined: the from-scratch content hash of the board,
/// then the written set packed 64 nodes per word.
Hash128 reference_memo_key(const Whiteboard& board,
                           const std::vector<bool>& written) {
  Hasher128 content;
  for (const Bits& m : board.messages()) {
    content.update(m.size());
    for (std::size_t w = 0; w < m.word_count(); ++w) content.update(m.word(w));
  }
  const Hash128 c = content.digest();
  Hasher128 h;
  h.update(c.lo);
  h.update(c.hi);
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < written.size(); ++i) {
    if (written[i]) word |= std::uint64_t{1} << (i % 64);
    if (i % 64 == 63) {
      h.update(word);
      word = 0;
    }
  }
  if (written.size() % 64 != 0) h.update(word);
  return h.digest();
}

/// Depth-first over every schedule on one journaling state, comparing
/// memo_key() with the reference formula at every branch point. Returns the
/// branch points checked.
std::size_t check_memo_keys(EngineState& s, std::vector<bool>& written) {
  const EngineState::Checkpoint pre_round = s.checkpoint();
  s.begin_round();
  if (s.terminal()) {
    s.rewind(pre_round);
    return 0;
  }
  EXPECT_EQ(s.memo_key(), reference_memo_key(s.board(), written));
  std::size_t checked = 1;
  const std::vector<NodeId> cands(s.candidates().begin(),
                                  s.candidates().end());
  const EngineState::Checkpoint pre_write = s.checkpoint();
  for (const NodeId v : cands) {
    s.write_node(v);
    written[v - 1] = true;
    checked += check_memo_keys(s, written);
    written[v - 1] = false;
    s.rewind(pre_write);
  }
  s.rewind(pre_round);
  return checked;
}

TEST(MemoKey, EqualsTheFromScratchFormulaAtEveryBranchPoint) {
  const AnonDegreeProtocol anon;
  const SyncBfsProtocol bfs;
  // A 70-node path pins the multi-word written set; SYNC-BFS walks it in
  // one schedule, one branch point per node.
  for (const auto& [g, p] :
       {std::pair<Graph, const Protocol*>{grid_graph(2, 3), &anon},
        std::pair<Graph, const Protocol*>{cycle_graph(5), &bfs},
        std::pair<Graph, const Protocol*>{path_graph(70), &bfs}}) {
    EngineState s(g, *p);
    s.set_journaling(true);
    std::vector<bool> written(g.node_count(), false);
    EXPECT_GT(check_memo_keys(s, written), 1u) << p->name();
  }
}

// ---- the flat memo table ----

Hash128 test_key(std::uint64_t i) {
  return Hash128{mix64(i + 1), mix64(~i)};
}

TEST(MemoTable, FindsWhatWasInsertedAndNothingElse) {
  MemoTable t;
  MemoEntry out;
  EXPECT_FALSE(t.find(test_key(0), out));
  t.insert(test_key(0), MemoEntry{7, 0, 0});
  ASSERT_TRUE(t.find(test_key(0), out));
  EXPECT_EQ(out.executions, 7u);
  EXPECT_EQ(out.engine_failures, 0u);
  EXPECT_EQ(out.wrong_outputs, 0u);
  EXPECT_FALSE(t.find(test_key(1), out));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.side_entries(), 0u);
}

TEST(MemoTable, TheEmptySlotKeyIsRemapped) {
  // {0,0} marks an empty slot; as a real key it is stored under the
  // stand-in and found again.
  MemoTable t;
  MemoEntry out;
  EXPECT_FALSE(t.find(Hash128{0, 0}, out));
  t.insert(Hash128{0, 0}, MemoEntry{42, 0, 0});
  ASSERT_TRUE(t.find(Hash128{0, 0}, out));
  EXPECT_EQ(out.executions, 42u);
  ASSERT_TRUE(t.find(MemoTable::kZeroKeyStandIn, out));
  EXPECT_EQ(out.executions, 42u);
  EXPECT_EQ(t.size(), 1u);
  // Keys next to it in either word are distinct keys.
  EXPECT_FALSE(t.find(Hash128{0, 1}, out));
  EXPECT_FALSE(t.find(Hash128{1, 0}, out));
}

TEST(MemoTable, NonZeroTalliesAndHugeCountsLiveInTheSideMap) {
  MemoTable t;
  const MemoEntry failing{10, 3, 0};
  const MemoEntry wrong{10, 0, 4};
  const MemoEntry huge{std::uint64_t{1} << 63, 0, 0};
  const MemoEntry plain{(std::uint64_t{1} << 63) - 1, 0, 0};
  t.insert(test_key(1), failing);
  t.insert(test_key(2), wrong);
  t.insert(test_key(3), huge);
  t.insert(test_key(4), plain);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.side_entries(), 3u);
  for (const auto& [i, e] : {std::pair{1, failing}, std::pair{2, wrong},
                             std::pair{3, huge}, std::pair{4, plain}}) {
    MemoEntry out;
    ASSERT_TRUE(t.find(test_key(static_cast<std::uint64_t>(i)), out)) << i;
    EXPECT_EQ(out.executions, e.executions) << i;
    EXPECT_EQ(out.engine_failures, e.engine_failures) << i;
    EXPECT_EQ(out.wrong_outputs, e.wrong_outputs) << i;
  }
}

TEST(MemoTable, GrowsThroughSeveralResizesKeepingEveryEntry) {
  MemoTable t;
  const std::size_t n = 5000;
  for (std::size_t i = 0; i < n; ++i) {
    t.insert(test_key(i), MemoEntry{i, i % 7 == 0 ? 1u : 0u, 0});
  }
  EXPECT_EQ(t.size(), n);
  // 1.5x growth from 1024 slots: five resizes, load at most 4/5.
  EXPECT_GE(t.capacity() * 4, n * 5);
  EXPECT_LT(t.capacity(), n * 2);
  for (std::size_t i = 0; i < n; ++i) {
    MemoEntry out;
    ASSERT_TRUE(t.find(test_key(i), out)) << i;
    EXPECT_EQ(out.executions, i);
    EXPECT_EQ(out.engine_failures, i % 7 == 0 ? 1u : 0u);
  }
  MemoEntry out;
  for (std::size_t i = n; i < n + 1000; ++i) {
    EXPECT_FALSE(t.find(test_key(i), out)) << i;
  }
}

TEST(MemoizedSweep, StateAndHitCountsArePinnedAcrossTableGrowth) {
  // grid:3x3 expands 13268 states, 13 times the table's starting
  // capacity, so the walk runs through seven resizes.
  const Graph g = grid_graph(3, 3);
  const AnonDegreeProtocol p;
  const MemoizedTotals t =
      sweep_memoized(g, p, [](const ExecutionResult&) { return true; });
  EXPECT_EQ(t.executions, 362880u);
  EXPECT_EQ(t.states_explored, 13268u);
  EXPECT_EQ(t.memo_hits, 21128u);
  EXPECT_EQ(t.terminals_visited, 2310u);
  EXPECT_EQ(t.distinct, 630u);
}

/// SIMSYNC with anonymous degree messages, so schedules converge. A node
/// recomposing on a board of exactly two messages writes 16 bits when it is
/// the hub (a message overflow: the bound is 8), so every schedule that has
/// not written the hub by round 3 fails in the engine.
class OverflowsLateHubProtocol final : public SimSyncProtocol<std::uint64_t> {
 public:
  [[nodiscard]] std::size_t message_bit_limit(std::size_t) const override {
    return 8;
  }
  [[nodiscard]] Bits compose(const LocalView& view,
                             const Whiteboard& board) const override {
    BitWriter w;
    const bool hub = view.degree() + 1 == view.n();
    w.write_uint(view.degree(), hub && board.message_count() == 2 ? 16 : 8);
    return w.take();
  }
  /// The first message's degree.
  [[nodiscard]] std::uint64_t output(const Whiteboard& board,
                                     std::size_t) const override {
    BitReader r(board.message(0));
    return r.read_uint(8);
  }
  [[nodiscard]] std::string name() const override {
    return "overflows-late-hub";
  }
};

TEST(MemoizedSweep, SideMapTalliesMatchTheEnumerator) {
  // On star:6 the hub writes in the first two rounds on 2 * 5! = 240
  // schedules. Every other schedule overflows in round 3, after one of the
  // 5 * 4 two-leaf prefixes: 20 engine failures. Of the successes, the 120
  // that open with the hub are judged wrong. Converged subtrees with
  // non-zero tallies are answered from the side map.
  const Graph g = star_graph(6);
  const OverflowsLateHubProtocol p;
  const auto judge = [&p](const ExecutionResult& r) {
    return p.output(r.board, 6) != 5;
  };
  const MemoizedTotals memo = sweep_memoized(g, p, judge);
  const FaultClassifier classify = [&judge](const ExecutionResult& r,
                                            std::span<const NodeId>) {
    if (!r.ok()) return FaultVerdict::kDeadlockOrFault;
    return judge(r) ? FaultVerdict::kCorrect : FaultVerdict::kWrongOutput;
  };
  const SweepTotals oracle =
      sweep_faulty_executions(g, p, FaultSpec{}, classify);
  EXPECT_EQ(memo.executions, 260u);
  EXPECT_EQ(memo.engine_failures, 20u);
  EXPECT_EQ(memo.wrong_outputs, 120u);
  EXPECT_GT(memo.memo_hits, 0u);
  EXPECT_EQ(oracle.engine_failures, memo.engine_failures);
  EXPECT_EQ(oracle.wrong_outputs, memo.wrong_outputs);
  EXPECT_EQ(cli::exhaustive_summary_lines(memo.executions,
                                          memo.engine_failures,
                                          memo.wrong_outputs, memo.distinct),
            report_of(oracle));
}

}  // namespace
}  // namespace wb
