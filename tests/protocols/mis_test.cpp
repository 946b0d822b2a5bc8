#include "src/protocols/mis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "src/graph/algorithms.h"
#include "src/graph/enumerate.h"
#include "src/graph/generators.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"
#include "src/wb/faults.h"

namespace wb {
namespace {

TEST(RootedMis, ExhaustiveAllGraphsAllRootsAllSchedulesUpToN4) {
  // The strongest possible evidence for Theorem 5 at small n: every labeled
  // graph, every root, every adversarial write order yields an inclusion-
  // maximal independent set containing the root.
  for (std::size_t n = 1; n <= 4; ++n) {
    for_each_labeled_graph(n, [&](const Graph& g) {
      for (NodeId root = 1; root <= n; ++root) {
        const RootedMisProtocol p(root);
        EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
          return is_rooted_mis(g, p.output(r.board, n), root);
        }));
      }
    });
  }
}

TEST(RootedMis, ExhaustiveSchedulesSelectedGraphsN6) {
  const Graph graphs[] = {cycle_graph(6), complete_graph(6), path_graph(6),
                          star_graph(6), two_cliques(3),
                          complete_bipartite(3, 3)};
  for (const Graph& g : graphs) {
    for (NodeId root : {NodeId{1}, NodeId{4}}) {
      const RootedMisProtocol p(root);
      EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
        return is_rooted_mis(g, p.output(r.board, 6), root);
      }));
    }
  }
}

class MisRandomTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(MisRandomTest, RandomGraphsUnderAdversaryBattery) {
  const auto [n, seed] = GetParam();
  const Graph g = erdos_renyi(n, 1, 4, seed);
  const NodeId root = static_cast<NodeId>(1 + seed % n);
  const RootedMisProtocol p(root);
  for (auto& adv : standard_adversaries(g, seed)) {
    const ExecutionResult r = run_protocol(g, p, *adv);
    ASSERT_TRUE(r.ok()) << adv->name();
    EXPECT_TRUE(is_rooted_mis(g, p.output(r.board, n), root)) << adv->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesSeeds, MisRandomTest,
    ::testing::Combine(::testing::Values(5, 12, 40, 120, 300),
                       ::testing::Values(2u, 19u, 101u)));

TEST(RootedMis, RootIsAlwaysInTheSet) {
  const Graph g = complete_graph(7);  // MIS = single node
  for (NodeId root = 1; root <= 7; ++root) {
    const RootedMisProtocol p(root);
    LastAdversary adv;
    const ExecutionResult r = run_protocol(g, p, adv);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(p.output(r.board, 7), (MisOutput{root}));
  }
}

TEST(RootedMis, IsolatedNodesAllEnter) {
  const Graph g = empty_graph(6);
  const RootedMisProtocol p(3);
  FirstAdversary adv;
  const ExecutionResult r = run_protocol(g, p, adv);
  ASSERT_TRUE(r.ok());
  MisOutput out = p.output(r.board, 6);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (MisOutput{1, 2, 3, 4, 5, 6}));
}

TEST(RootedMis, MessageIsLogN) {
  const RootedMisProtocol p(1);
  EXPECT_LE(p.message_bit_limit(1024), 11u);
}

TEST(MisOracle, GreedyContainsRootAndIsMaximal) {
  for (std::uint64_t seed : {5u, 6u}) {
    const Graph g = erdos_renyi(12, 1, 3, seed);
    for (NodeId root = 1; root <= 12; root += 5) {
      const MisOracleProtocol p(root);
      FirstAdversary adv;
      const ExecutionResult r = run_protocol(g, p, adv);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(is_rooted_mis(g, p.output(r.board, 12), root));
    }
  }
}

TEST(MisOracle, DeterministicAcrossSchedules) {
  // The oracle's output depends only on the reconstructed graph, never on
  // the adversary's order (required by the Theorem 6 reduction).
  const Graph g = erdos_renyi(6, 1, 2, 8);
  const MisOracleProtocol p(2);
  MisOutput first_out;
  bool first = true;
  for_each_execution(g, p, [&](const ExecutionResult& r) {
    const MisOutput out = p.output(r.board, 6);
    if (first) {
      first_out = out;
      first = false;
    } else {
      EXPECT_EQ(out, first_out);
    }
    return true;
  });
}

}  // namespace
}  // namespace wb
