#include "src/wb/whiteboard.h"

#include <gtest/gtest.h>

#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/protocols/bfs_sync.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"
#include "src/wb/faults.h"

namespace wb {
namespace {

Bits bits_of(std::uint64_t value, int width) {
  BitWriter w;
  w.write_uint(value, width);
  return w.take();
}

TEST(Whiteboard, AppendAndAccess) {
  Whiteboard board;
  EXPECT_TRUE(board.empty());
  board.append(bits_of(3, 4));
  board.append(bits_of(9, 8));
  EXPECT_EQ(board.message_count(), 2u);
  EXPECT_EQ(board.total_bits(), 12u);
  EXPECT_TRUE(board.message(0) == bits_of(3, 4));
  EXPECT_THROW((void)board.message(2), LogicError);
}

struct CountView {
  std::size_t messages = 0;
};
struct SumView {
  std::size_t bits = 0;
};

TEST(WhiteboardCache, BuildsOncePerBoardState) {
  Whiteboard board;
  board.append(bits_of(1, 2));
  int builds = 0;
  auto factory = [&builds](const Whiteboard& b) {
    ++builds;
    return CountView{b.message_count()};
  };
  EXPECT_EQ(board.cached_view<CountView>(factory).messages, 1u);
  EXPECT_EQ(board.cached_view<CountView>(factory).messages, 1u);
  EXPECT_EQ(builds, 1);
}

TEST(WhiteboardCache, AppendInvalidates) {
  Whiteboard board;
  int builds = 0;
  auto factory = [&builds](const Whiteboard& b) {
    ++builds;
    return CountView{b.message_count()};
  };
  (void)board.cached_view<CountView>(factory);
  board.append(bits_of(1, 2));
  EXPECT_EQ(board.cached_view<CountView>(factory).messages, 1u);
  EXPECT_EQ(builds, 2);
}

TEST(WhiteboardCache, DistinctViewTypesDoNotMix) {
  Whiteboard board;
  board.append(bits_of(7, 8));
  auto count_factory = [](const Whiteboard& b) {
    return CountView{b.message_count()};
  };
  auto sum_factory = [](const Whiteboard& b) {
    return SumView{b.total_bits()};
  };
  EXPECT_EQ(board.cached_view<CountView>(count_factory).messages, 1u);
  EXPECT_EQ(board.cached_view<SumView>(sum_factory).bits, 8u);
  EXPECT_EQ(board.cached_view<CountView>(count_factory).messages, 1u);
}

TEST(WhiteboardCache, CopiesShareThePrefixSafely) {
  // The exhaustive explorer copies boards at branch points; a copy's append
  // must not disturb the original's cached view.
  Whiteboard original;
  original.append(bits_of(1, 4));
  int builds = 0;
  auto factory = [&builds](const Whiteboard& b) {
    ++builds;
    return CountView{b.message_count()};
  };
  (void)original.cached_view<CountView>(factory);

  Whiteboard copy = original;
  copy.append(bits_of(2, 4));
  EXPECT_EQ(copy.cached_view<CountView>(factory).messages, 2u);
  EXPECT_EQ(original.cached_view<CountView>(factory).messages, 1u);
  EXPECT_EQ(builds, 2);  // original's view survived the copy's append
}

TEST(Whiteboard, TruncateUnwindsAppends) {
  Whiteboard board;
  board.append(bits_of(1, 4));
  board.append(bits_of(2, 8));
  board.append(bits_of(3, 16));
  ASSERT_EQ(board.total_bits(), 28u);
  board.truncate(1);
  EXPECT_EQ(board.message_count(), 1u);
  EXPECT_EQ(board.total_bits(), 4u);
  EXPECT_TRUE(board.message(0) == bits_of(1, 4));
  // Re-append after truncation: the board behaves like a fresh prefix.
  board.append(bits_of(9, 8));
  EXPECT_EQ(board.message_count(), 2u);
  EXPECT_EQ(board.total_bits(), 12u);
  EXPECT_TRUE(board.message(1) == bits_of(9, 8));
  board.truncate(0);
  EXPECT_TRUE(board.empty());
  EXPECT_EQ(board.total_bits(), 0u);
}

TEST(Whiteboard, CopyIsStructuralSharingAndCopiesDivergeSafely) {
  // The engine snapshots a board into every ExecutionResult; the snapshot
  // must stay intact while the original backtracks (truncates) and explores
  // a different branch.
  Whiteboard original;
  original.append(bits_of(1, 4));
  original.append(bits_of(2, 4));
  original.append(bits_of(3, 4));
  const Whiteboard snapshot = original;  // O(1) copy

  original.truncate(1);
  original.append(bits_of(7, 4));
  original.append(bits_of(8, 4));

  ASSERT_EQ(snapshot.message_count(), 3u);
  EXPECT_TRUE(snapshot.message(0) == bits_of(1, 4));
  EXPECT_TRUE(snapshot.message(1) == bits_of(2, 4));
  EXPECT_TRUE(snapshot.message(2) == bits_of(3, 4));
  EXPECT_EQ(snapshot.total_bits(), 12u);

  ASSERT_EQ(original.message_count(), 3u);
  EXPECT_TRUE(original.message(0) == bits_of(1, 4));
  EXPECT_TRUE(original.message(1) == bits_of(7, 4));
  EXPECT_TRUE(original.message(2) == bits_of(8, 4));
}

TEST(Whiteboard, BothForksOfACopyCanAppend) {
  Whiteboard a;
  a.append(bits_of(5, 4));
  Whiteboard b = a;
  a.append(bits_of(6, 4));
  b.append(bits_of(7, 4));
  ASSERT_EQ(a.message_count(), 2u);
  ASSERT_EQ(b.message_count(), 2u);
  EXPECT_TRUE(a.message(1) == bits_of(6, 4));
  EXPECT_TRUE(b.message(1) == bits_of(7, 4));
  EXPECT_TRUE(a.message(0) == b.message(0));
}

TEST(Whiteboard, MovedFromBoardIsEmptyAndReusable) {
  // finish() && moves the engine's board out; the moved-from board must
  // report empty (not a stale count over null storage) and accept appends.
  Whiteboard a;
  a.append(bits_of(5, 4));
  a.append(bits_of(6, 4));
  const Whiteboard b = std::move(a);
  EXPECT_TRUE(a.empty());                  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.message_count(), 0u);
  EXPECT_EQ(a.total_bits(), 0u);
  EXPECT_THROW((void)a.message(0), LogicError);
  ASSERT_EQ(b.message_count(), 2u);
  EXPECT_TRUE(b.message(1) == bits_of(6, 4));

  a.append(bits_of(9, 8));
  EXPECT_EQ(a.message_count(), 1u);
  EXPECT_EQ(a.total_bits(), 8u);

  Whiteboard c;
  c = std::move(a);  // move-assignment path
  EXPECT_TRUE(a.empty());                  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.message_count(), 1u);
  EXPECT_TRUE(c.message(0) == bits_of(9, 8));
}

TEST(Whiteboard, ContentHashMatchesContentEquality) {
  Whiteboard a, b;
  a.append(bits_of(3, 4));
  a.append(bits_of(250, 8));
  b.append(bits_of(3, 4));
  b.append(bits_of(250, 8));
  EXPECT_EQ(a.content_hash(), b.content_hash());

  // Same totals, different message boundaries: 4+8 bits vs 8+4 bits.
  Whiteboard c;
  c.append(bits_of(3, 8));
  c.append(bits_of(250 & 0xf, 4));
  EXPECT_NE(a.content_hash(), c.content_hash());

  // Same messages, different order.
  Whiteboard d;
  d.append(bits_of(250, 8));
  d.append(bits_of(3, 4));
  EXPECT_NE(a.content_hash(), d.content_hash());

  // Dirty construction tails must not leak into the hash (word-wise hashing
  // relies on masked tails).
  Whiteboard clean, dirty;
  clean.append(Bits(std::vector<std::uint64_t>{0b1011}, 4));
  dirty.append(Bits(std::vector<std::uint64_t>{0xffffffffffffff0bULL}, 4));
  EXPECT_EQ(clean.content_hash(), dirty.content_hash());

  // Empty boards hash consistently too.
  EXPECT_EQ(Whiteboard().content_hash(), Whiteboard().content_hash());
  EXPECT_NE(Whiteboard().content_hash(), a.content_hash());
}

TEST(WhiteboardCache, SurvivesTruncateBackToTheCachedPrefix) {
  // truncate() keeps a cached view of a still-live prefix: the explorer
  // rewinds to a checkpoint and must not re-parse the unchanged board.
  Whiteboard board;
  board.append(bits_of(1, 2));
  int builds = 0;
  auto factory = [&builds](const Whiteboard& b) {
    ++builds;
    return CountView{b.message_count()};
  };
  EXPECT_EQ(board.cached_view<CountView>(factory).messages, 1u);
  board.append(bits_of(2, 2));
  EXPECT_EQ(board.cached_view<CountView>(factory).messages, 2u);
  board.truncate(2);  // no-op truncate keeps the count-2 view
  EXPECT_EQ(board.cached_view<CountView>(factory).messages, 2u);
  EXPECT_EQ(builds, 2);
  board.truncate(1);
  board.append(bits_of(3, 2));  // count back to 2, but different content
  EXPECT_EQ(board.cached_view<CountView>(factory).messages, 2u);
  EXPECT_EQ(builds, 3);  // append invalidated the stale count-2 view
}

TEST(WhiteboardCache, ExhaustiveExplorationStaysCorrectWithCaching) {
  // End-to-end guard: the cached parses inside SyncBfs must not leak across
  // explorer branches (every schedule still yields the reference layers).
  const Graph g = complete_bipartite(2, 3);
  const SyncBfsProtocol p;
  const BfsForest ref = bfs_forest(g);
  EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
    return p.output(r.board, 5).layer == ref.layer;
  }));
}

}  // namespace
}  // namespace wb
