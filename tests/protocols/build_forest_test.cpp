#include "src/protocols/build_forest.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "src/graph/algorithms.h"
#include "src/graph/enumerate.h"
#include "src/graph/generators.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"
#include "src/wb/faults.h"

namespace wb {
namespace {

BuildOutput run_and_decode(const Graph& g, const BuildForestProtocol& p,
                           Adversary& adv) {
  const ExecutionResult r = run_protocol(g, p, adv);
  EXPECT_TRUE(r.ok()) << r.error;
  return p.output(r.board, g.node_count());
}

class ForestReconstructionTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(ForestReconstructionTest, RandomForestsReconstructUnderAllAdversaries) {
  const auto [n, seed] = GetParam();
  const BuildForestProtocol p;
  const Graph g = random_forest(n, 75, seed);
  for (auto& adv : standard_adversaries(g, seed)) {
    const BuildOutput out = run_and_decode(g, p, *adv);
    ASSERT_TRUE(out.has_value()) << adv->name();
    EXPECT_EQ(*out, g) << adv->name();
  }
}

TEST_P(ForestReconstructionTest, RandomTreesReconstruct) {
  const auto [n, seed] = GetParam();
  const BuildForestProtocol p;
  const Graph g = random_tree(n, seed);
  FirstAdversary adv;
  const BuildOutput out = run_and_decode(g, p, adv);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, g);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, ForestReconstructionTest,
    ::testing::Combine(::testing::Values(2, 3, 8, 33, 100, 257),
                       ::testing::Values(1u, 42u, 1234u)));

TEST(BuildForest, EveryLabeledForestUpToN5EverySchedule) {
  // SIMASYNC messages are order-independent in content, but the board order
  // varies with the schedule; the decoder must be insensitive. Exhausts all
  // labeled forests on ≤ 5 nodes and every write order of each.
  const BuildForestProtocol p;
  for (std::size_t n = 1; n <= 5; ++n) {
    for_each_labeled_forest(n, [&](const Graph& g) {
      EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
        const BuildOutput out = p.output(r.board, n);
        return out.has_value() && *out == g;
      }));
    });
  }
}

TEST(BuildForest, RejectsEveryNonForestUpToN5) {
  const BuildForestProtocol p;
  for (std::size_t n = 3; n <= 5; ++n) {
    for_each_labeled_graph(n, [&](const Graph& g) {
      if (is_k_degenerate(g, 1)) return;  // forests handled above
      FirstAdversary adv;
      const ExecutionResult r = run_protocol(g, p, adv);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(p.output(r.board, n), std::nullopt);
    });
  }
}

TEST(BuildForest, RejectsCycles) {
  const BuildForestProtocol p;
  for (std::size_t n : {3u, 10u, 51u}) {
    FirstAdversary adv;
    const Graph g = cycle_graph(n);
    const ExecutionResult r = run_protocol(g, p, adv);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(p.output(r.board, n), std::nullopt) << n;
  }
}

TEST(BuildForest, MessageSizeIsFourLogN) {
  const BuildForestProtocol p;
  for (std::size_t n : {4u, 16u, 256u, 1000u}) {
    const double logn = std::log2(static_cast<double>(n));
    EXPECT_LE(static_cast<double>(p.message_bit_limit(n)), 4 * logn + 6) << n;
  }
}

TEST(BuildForest, MeasuredBitsRespectDeclaredBound) {
  const BuildForestProtocol p;
  const Graph g = random_tree(64, 9);
  FirstAdversary adv;
  const ExecutionResult r = run_protocol(g, p, adv);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.stats.max_message_bits, p.message_bit_limit(64));
  EXPECT_LE(r.stats.total_bits, 64 * p.message_bit_limit(64));
}

TEST(BuildForest, CorruptedBoardsRaiseDataError) {
  const BuildForestProtocol p;
  const Graph g = path_graph(4);
  FirstAdversary adv;
  const ExecutionResult r = run_protocol(g, p, adv);
  ASSERT_TRUE(r.ok());

  // Missing message.
  Whiteboard truncated;
  for (std::size_t i = 0; i + 1 < r.board.message_count(); ++i) {
    truncated.append(r.board.message(i));
  }
  EXPECT_THROW((void)p.output(truncated, 4), DataError);

  // Duplicated writer.
  Whiteboard duplicated = truncated;
  duplicated.append(r.board.message(0));
  duplicated.append(r.board.message(0));
  EXPECT_THROW((void)p.output(duplicated, 4), DataError);

  // Trailing garbage bits on one message.
  Whiteboard padded;
  for (std::size_t i = 0; i < r.board.message_count(); ++i) {
    if (i == 2) {
      BitWriter w;
      for (std::size_t b = 0; b < r.board.message(i).size(); ++b) {
        w.write_bit(r.board.message(i).bit(b));
      }
      w.write_bit(true);
      padded.append(w.take());
    } else {
      padded.append(r.board.message(i));
    }
  }
  EXPECT_THROW((void)p.output(padded, 4), DataError);
}

TEST(BuildForest, SingleNodeAndEmptyEdgeSets) {
  const BuildForestProtocol p;
  for (std::size_t n : {1u, 2u, 7u}) {
    const Graph g = empty_graph(n);
    FirstAdversary adv;
    const ExecutionResult r = run_protocol(g, p, adv);
    ASSERT_TRUE(r.ok());
    const BuildOutput out = p.output(r.board, n);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, g);
  }
}

}  // namespace
}  // namespace wb
