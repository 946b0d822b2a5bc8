#include "src/protocols/eob_bfs.h"

#include <gtest/gtest.h>

#include <tuple>

#include "src/graph/algorithms.h"
#include "src/graph/enumerate.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"
#include "src/wb/faults.h"

namespace wb {
namespace {

/// The paper's output contract: layers equal true BFS distances from the
/// minimum-ID root of each component, parents are valid BFS parents.
bool matches_reference(const Graph& g, const BfsProtocolOutput& out) {
  if (!out.valid) return false;
  const BfsForest ref = bfs_forest(g);
  return out.layer == ref.layer && out.roots == ref.roots &&
         is_valid_bfs_forest(g, out.layer, out.parent);
}

TEST(EobBfs, ExhaustiveAllEvenOddGraphsAllSchedulesN6) {
  // All 2^9 = 512 even-odd-bipartite graphs on 6 nodes (connected or not),
  // every adversarial schedule of each.
  const EobBfsProtocol p;
  std::uint64_t graphs = 0;
  for_each_even_odd_bipartite_graph(6, [&](const Graph& g) {
    ++graphs;
    EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
      return matches_reference(g, p.output(r.board, 6));
    })) << to_edge_list(g);
  });
  EXPECT_EQ(graphs, 512u);
}

TEST(EobBfs, ExhaustiveInvalidInputsAreReportedN5) {
  // Graphs that are NOT even-odd-bipartite must be flagged invalid on every
  // schedule (Thm 7's first activation rule).
  const EobBfsProtocol p;
  for_each_labeled_graph(5, [&](const Graph& g) {
    if (is_even_odd_bipartite(g)) return;
    EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
      return !p.output(r.board, 5).valid;
    }));
  });
}

class EobRandomTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(EobRandomTest, ConnectedGraphsUnderBattery) {
  const auto [n, seed] = GetParam();
  const Graph g = connected_even_odd_bipartite(n, 1, 4, seed);
  const EobBfsProtocol p;
  for (auto& adv : standard_adversaries(g, seed)) {
    const ExecutionResult r = run_protocol(g, p, *adv);
    ASSERT_TRUE(r.ok()) << adv->name() << ": " << r.error;
    EXPECT_TRUE(matches_reference(g, p.output(r.board, n))) << adv->name();
  }
}

TEST_P(EobRandomTest, DisconnectedGraphsUnderBattery) {
  const auto [n, seed] = GetParam();
  const Graph g = random_even_odd_bipartite(n, 1, 6, seed);
  const EobBfsProtocol p;
  for (auto& adv : standard_adversaries(g, seed)) {
    const ExecutionResult r = run_protocol(g, p, *adv);
    ASSERT_TRUE(r.ok()) << adv->name() << ": " << r.error;
    EXPECT_TRUE(matches_reference(g, p.output(r.board, n))) << adv->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesSeeds, EobRandomTest,
    ::testing::Combine(::testing::Values(2, 7, 16, 41, 100),
                       ::testing::Values(3u, 23u, 777u)));

TEST(EobBfs, ThreePlusComponentsExerciseTheSwitchRule) {
  // Three components, each with a nonzero-degree root — the case where the
  // paper's literal switch condition would stall (see eob_bfs.h).
  GraphBuilder b(9);
  b.add_edge(1, 2);  // component A: root 1, layer-1 = {2}
  b.add_edge(3, 4);  // component B: root 3
  b.add_edge(5, 6);  // component C: root 5
  b.add_edge(6, 7);  // ... with depth 2
  // 8, 9 isolated: two singleton components.
  const Graph g = b.build();
  const EobBfsProtocol p;
  EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
    return matches_reference(g, p.output(r.board, 9));
  }));
}

TEST(EobBfs, InvalidGraphMixedWithValidProgress) {
  // A same-parity edge far from node 1: BFS progress may interleave with the
  // invalid report, but every schedule must end valid=false and successful.
  GraphBuilder b(7);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(5, 7);  // odd-odd: invalid
  const Graph g = b.build();
  const EobBfsProtocol p;
  EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
    return !p.output(r.board, 7).valid;
  }));
}

TEST(BipartiteBfs, SolvesEvenCyclesWithScrambledIds) {
  // Corollary 4: bipartite inputs whose bipartition is NOT the ID parity.
  // C4 with labels making it not even-odd: edges 1-3, 3-2, 2-4, 4-1.
  GraphBuilder b(4);
  b.add_edge(1, 3);
  b.add_edge(3, 2);
  b.add_edge(2, 4);
  b.add_edge(4, 1);
  const Graph g = b.build();
  ASSERT_FALSE(is_even_odd_bipartite(g));
  ASSERT_TRUE(is_bipartite(g));
  const EobBfsProtocol p(EobMode::kBipartiteNoCheck);
  EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
    const BfsProtocolOutput out = p.output(r.board, 4);
    const BfsForest ref = bfs_forest(g);
    return out.valid && out.layer == ref.layer;
  }));
}

TEST(BipartiteBfs, RandomBipartiteUnderBattery) {
  for (std::uint64_t seed : {4u, 9u}) {
    Graph base = random_bipartite(6, 6, 1, 2, seed);
    const Graph g = relabel(base, random_permutation(12, seed));
    if (!is_bipartite(g)) continue;  // always bipartite; defensive
    const EobBfsProtocol p(EobMode::kBipartiteNoCheck);
    for (auto& adv : standard_adversaries(g, seed)) {
      const ExecutionResult r = run_protocol(g, p, *adv);
      ASSERT_TRUE(r.ok()) << adv->name() << ": " << r.error;
      const BfsProtocolOutput out = p.output(r.board, 12);
      EXPECT_TRUE(out.valid);
      EXPECT_TRUE(is_valid_bfs_forest(g, out.layer, out.parent))
          << adv->name();
    }
  }
}

TEST(BipartiteBfs, PureOddCyclesHappenToSucceed) {
  // A finding worth pinning (EXPERIMENTS.md): on a bare odd cycle the unique
  // intra-layer edge sits at the *last* BFS layer, where no further
  // certificate is ever needed — the protocol terminates with correct
  // layers. The Cor 4 deadlock needs structure beyond the odd edge.
  const EobBfsProtocol p(EobMode::kBipartiteNoCheck);
  for (std::size_t n : {3u, 5u, 7u}) {
    const Graph g = cycle_graph(n);
    const BfsForest ref = bfs_forest(g);
    EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
      return p.output(r.board, n).layer == ref.layer;
    })) << "n=" << n;
  }
}

TEST(BipartiteBfs, DeadlocksBeyondTheOddEdge) {
  // Deadlock cases per the Cor 4 remark: (a) an intra-layer edge with nodes
  // two layers further — their certificate never balances; (b) an odd
  // component followed by another component — the switch condition never
  // clears the pending intra-layer edges.
  const EobBfsProtocol p(EobMode::kBipartiteNoCheck);

  // (a) Triangle with a length-2 tail: 5 needs cert(2), which never holds.
  GraphBuilder a(5);
  a.add_edge(1, 2);
  a.add_edge(1, 3);
  a.add_edge(2, 3);
  a.add_edge(3, 4);
  a.add_edge(4, 5);
  // (b) Triangle plus an isolated node.
  GraphBuilder b(4);
  b.add_edge(1, 2);
  b.add_edge(1, 3);
  b.add_edge(2, 3);
  for (const Graph& g : {a.build(), b.build()}) {
    std::uint64_t deadlocks = 0, executions = 0;
    for_each_execution(g, p, [&](const ExecutionResult& r) {
      ++executions;
      if (r.status == RunStatus::kDeadlock) ++deadlocks;
      return true;
    });
    EXPECT_GT(executions, 0u);
    EXPECT_EQ(deadlocks, executions);
  }
}

TEST(EobBfs, SingleNodeAndSingleEdge) {
  const EobBfsProtocol p;
  {
    const Graph g(1);
    FirstAdversary adv;
    const ExecutionResult r = run_protocol(g, p, adv);
    ASSERT_TRUE(r.ok());
    const BfsProtocolOutput out = p.output(r.board, 1);
    EXPECT_TRUE(out.valid);
    EXPECT_EQ(out.roots, (std::vector<NodeId>{1}));
  }
  {
    const std::vector<Edge> edges = {{1, 2}};
    const Graph g(2, edges);
    EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
      return matches_reference(g, p.output(r.board, 2));
    }));
  }
}

TEST(EobBfs, MessageIsLogN) {
  const EobBfsProtocol p;
  // kind + id + layer + parent + two counters ≈ 5·log n + 1.
  EXPECT_LE(p.message_bit_limit(1024), 5u * 11u + 1u);
}

}  // namespace
}  // namespace wb
