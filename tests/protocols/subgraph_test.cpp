#include "src/protocols/subgraph.h"

#include <gtest/gtest.h>

#include <tuple>

#include "src/graph/enumerate.h"
#include "src/graph/generators.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"
#include "src/wb/faults.h"

namespace wb {
namespace {

/// Reference answer: G's edges restricted to {1..f}, on n nodes.
Graph prefix_subgraph(const Graph& g, std::size_t f) {
  GraphBuilder b(g.node_count());
  for (const Edge& e : g.edges()) {
    if (e.u <= f && e.v <= f) b.add_edge(e.u, e.v);
  }
  return b.build();
}

class SubgraphTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SubgraphTest, ReconstructsPrefixEdges) {
  const auto [n, f] = GetParam();
  const SubgraphProtocol p(f);
  const Graph g = erdos_renyi(n, 1, 2, n * 31 + f);
  for (auto& adv : standard_adversaries(g, f)) {
    const ExecutionResult r = run_protocol(g, p, *adv);
    ASSERT_TRUE(r.ok()) << adv->name();
    EXPECT_EQ(p.output(r.board, n), prefix_subgraph(g, f)) << adv->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SubgraphTest,
                         ::testing::Values(std::tuple{6u, 3u},
                                           std::tuple{10u, 5u},
                                           std::tuple{40u, 8u},
                                           std::tuple{40u, 40u},
                                           std::tuple{25u, 1u},
                                           std::tuple{12u, 30u}));

TEST(Subgraph, ExhaustiveSchedulesSmall) {
  const SubgraphProtocol p(3);
  for_each_labeled_graph(4, [&](const Graph& g) {
    const Graph expect = prefix_subgraph(g, 3);
    EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
      return p.output(r.board, 4) == expect;
    }));
  });
}

TEST(Subgraph, MessageSizeIsFPlusIdBits) {
  const SubgraphProtocol p(64);
  EXPECT_LE(p.message_bit_limit(4096), 64u + 12u);
  // Theorem 9's point: the budget scales with f, not with n.
  const SubgraphProtocol small(8);
  EXPECT_LE(small.message_bit_limit(1u << 16), 8u + 16u);
}

TEST(Subgraph, MeasuredBitsMatchPrefixMembership) {
  const std::size_t n = 30, f = 10;
  const SubgraphProtocol p(f);
  const Graph g = erdos_renyi(n, 1, 2, 77);
  const ExecutionResult r = run_protocol(g, p);
  ASSERT_TRUE(r.ok());
  // Prefix nodes write id+f bits, the rest only their id: check totals.
  const std::size_t id_bits = 5;  // ceil(log2 30)
  EXPECT_EQ(r.stats.total_bits, n * id_bits + f * f);
}

TEST(Subgraph, AsymmetricPrefixRowsRaiseDataError) {
  const SubgraphProtocol p(2);
  const std::vector<Edge> edges = {{1, 2}};
  const Graph g(3, edges);
  const ExecutionResult r = run_protocol(g, p);
  ASSERT_TRUE(r.ok());
  // Forge node 2's message to deny the edge {1,2}.
  Whiteboard corrupted;
  for (std::size_t i = 0; i < r.board.message_count(); ++i) {
    BitReader probe(r.board.message(i));
    const NodeId id = static_cast<NodeId>(probe.read_uint(2) + 1);
    if (id == 2) {
      BitWriter w;
      w.write_uint(1, 2);   // id 2
      w.write_bit(false);   // denies {2,1}
      w.write_bit(false);
      corrupted.append(w.take());
    } else {
      corrupted.append(r.board.message(i));
    }
  }
  EXPECT_THROW((void)p.output(corrupted, 3), DataError);
}

}  // namespace
}  // namespace wb
