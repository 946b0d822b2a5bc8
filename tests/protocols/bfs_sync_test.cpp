#include "src/protocols/bfs_sync.h"

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

bool matches_reference(const Graph& g, const BfsProtocolOutput& out) {
  if (!out.valid) return false;
  const BfsForest ref = bfs_forest(g);
  return out.layer == ref.layer && out.roots == ref.roots &&
         is_valid_bfs_forest(g, out.layer, out.parent);
}

TEST(SyncBfs, ExhaustiveAllLabeledGraphsAllSchedulesN5) {
  // Theorem 10 at full strength for n ≤ 5: BFS on *arbitrary* graphs — odd
  // cycles, triangles, disconnected, everything — under every schedule.
  const SyncBfsProtocol p;
  for (std::size_t n = 1; n <= 5; ++n) {
    for_each_labeled_graph(n, [&](const Graph& g) {
      EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
        return matches_reference(g, p.output(r.board, n));
      })) << to_edge_list(g);
    });
  }
}

TEST(SyncBfs, ExhaustiveSelectedGraphsN6toN7) {
  const Graph graphs[] = {
      cycle_graph(7),            // odd cycle: the Cor 4 deadlock case, solved
      complete_graph(6),         // all intra-layer edges at layer 1
      complete_bipartite(3, 4),  // dense bipartite
      grid_graph(2, 3),
      two_cliques(3),            // disconnected with intra-layer edges
      star_graph(7),
  };
  const SyncBfsProtocol p;
  for (const Graph& g : graphs) {
    const std::size_t n = g.node_count();
    EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
      return matches_reference(g, p.output(r.board, n));
    })) << to_edge_list(g);
  }
}

class SyncBfsRandomTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(SyncBfsRandomTest, ConnectedRandomGraphsUnderBattery) {
  const auto [n, seed] = GetParam();
  const Graph g = connected_gnp(n, 1, 5, seed);
  const SyncBfsProtocol p;
  for (auto& adv : standard_adversaries(g, seed)) {
    const ExecutionResult r = run_protocol(g, p, *adv);
    ASSERT_TRUE(r.ok()) << adv->name() << ": " << r.error;
    EXPECT_TRUE(matches_reference(g, p.output(r.board, n))) << adv->name();
  }
}

TEST_P(SyncBfsRandomTest, SparseDisconnectedGraphsUnderBattery) {
  const auto [n, seed] = GetParam();
  const Graph g = erdos_renyi(n, 1, n, seed);  // p = 1/n: many components
  const SyncBfsProtocol p;
  for (auto& adv : standard_adversaries(g, seed)) {
    const ExecutionResult r = run_protocol(g, p, *adv);
    ASSERT_TRUE(r.ok()) << adv->name() << ": " << r.error;
    EXPECT_TRUE(matches_reference(g, p.output(r.board, n))) << adv->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesSeeds, SyncBfsRandomTest,
    ::testing::Combine(::testing::Values(4, 9, 25, 60, 150),
                       ::testing::Values(5u, 17u, 4242u)));

TEST(SyncBfs, NonBipartiteGraphsWhereAsyncWouldDeadlock) {
  // Head-to-head with Cor 4's limitation: odd cycles deadlock the ASYNC
  // bipartite protocol but must succeed here, on every schedule.
  const SyncBfsProtocol p;
  for (std::size_t n : {3u, 5u, 7u}) {
    const Graph g = cycle_graph(n);
    EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
      return matches_reference(g, p.output(r.board, n));
    })) << "n=" << n;
  }
}

TEST(SyncBfs, TriangleWithPendantExercisesD0Accounting) {
  // Triangle {1,2,3} plus pendant 4-1: node 3 reaches layer 1 with an
  // intra-layer edge to 2 whose d0 charge depends on the schedule.
  GraphBuilder b(4);
  b.add_edge(1, 2);
  b.add_edge(1, 3);
  b.add_edge(2, 3);
  b.add_edge(1, 4);
  const Graph g = b.build();
  const SyncBfsProtocol p;
  EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
    return matches_reference(g, p.output(r.board, 4));
  }));
}

TEST(SyncBfs, ThreePlusComponentsExerciseTheSwitchRule) {
  GraphBuilder b(10);
  b.add_edge(1, 2);
  b.add_edge(2, 3);   // component A, depth 2
  b.add_edge(4, 5);
  b.add_edge(4, 6);
  b.add_edge(5, 6);   // component B: a triangle
  b.add_edge(7, 8);   // component C
  // 9, 10 isolated.
  const Graph g = b.build();
  const SyncBfsProtocol p;
  for (auto& adv : standard_adversaries(g, 55)) {
    const ExecutionResult r = run_protocol(g, p, *adv);
    ASSERT_TRUE(r.ok()) << adv->name() << ": " << r.error;
    EXPECT_TRUE(matches_reference(g, p.output(r.board, 10))) << adv->name();
  }
}

TEST(SyncBfs, MessageIsLogN) {
  const SyncBfsProtocol p;
  // id + layer + parent + three counters ≈ 6·log n.
  EXPECT_LE(p.message_bit_limit(1024), 6u * 11u);
}

TEST(SyncBfs, MeasuredBitsWithinBound) {
  const Graph g = connected_gnp(80, 1, 8, 2);
  const SyncBfsProtocol p;
  const ExecutionResult r = run_protocol(g, p);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.stats.max_message_bits, p.message_bit_limit(80));
}

}  // namespace
}  // namespace wb
