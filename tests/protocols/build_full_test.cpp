#include "src/protocols/build_full.h"

#include <gtest/gtest.h>

#include "src/graph/enumerate.h"
#include "src/graph/generators.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"
#include "src/wb/faults.h"

namespace wb {
namespace {

TEST(BuildFull, ReconstructsArbitraryGraphs) {
  const BuildFullProtocol p;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Graph g = erdos_renyi(40, 1, 2, seed);
    for (auto& adv : standard_adversaries(g, seed)) {
      const ExecutionResult r = run_protocol(g, p, *adv);
      ASSERT_TRUE(r.ok()) << adv->name();
      EXPECT_EQ(p.output(r.board, 40), g) << adv->name();
    }
  }
}

TEST(BuildFull, ExhaustiveSmallGraphsAllSchedules) {
  const BuildFullProtocol p;
  for_each_labeled_graph(4, [&](const Graph& g) {
    EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
      return p.output(r.board, 4) == g;
    }));
  });
}

TEST(BuildFull, MessageIsThetaN) {
  const BuildFullProtocol p;
  EXPECT_GE(p.message_bit_limit(100), 100u);
  EXPECT_LE(p.message_bit_limit(100), 100u + 8u);
}

TEST(BuildFull, AsymmetricRowsRaiseDataError) {
  const BuildFullProtocol p;
  const std::vector<Edge> edges = {{1, 2}};
  const Graph g(3, edges);
  FirstAdversary adv;
  const ExecutionResult r = run_protocol(g, p, adv);
  ASSERT_TRUE(r.ok());
  // Rewrite node 3's row to claim adjacency with 1 (1 does not reciprocate).
  Whiteboard corrupted;
  for (std::size_t i = 0; i < 2; ++i) corrupted.append(r.board.message(i));
  {
    BitWriter w;
    w.write_uint(2, 2);  // id 3 (stored as id-1 = 2 in 2 bits)
    w.write_bit(true);   // claims edge {3,1}
    w.write_bit(false);
    w.write_bit(false);
    corrupted.append(w.take());
  }
  EXPECT_THROW((void)p.output(corrupted, 3), DataError);
}

}  // namespace
}  // namespace wb
