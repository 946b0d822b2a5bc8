#include "src/wb/whiteboard.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/protocols/bfs_sync.h"
#include "src/support/rng.h"
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

/// Drives cached_view with a view that logs every message folded into it.
/// `inits` counts rebuilds from the empty view; `extends` holds the values
/// each extend call was handed, one entry per call.
struct ViewProbe {
  struct Log {
    std::vector<std::uint64_t> values;  // every folded message, in order
  };
  int inits = 0;
  std::vector<std::vector<std::uint64_t>> extends;

  const Log& view(const Whiteboard& board) {
    return board.cached_view<Log>(
        [this] {
          ++inits;
          return Log{};
        },
        [this](Log& log, std::span<const Bits> appended) {
          std::vector<std::uint64_t>& call = extends.emplace_back();
          for (const Bits& m : appended) {
            BitReader r(m);
            call.push_back(r.read_uint(static_cast<int>(m.size())));
            log.values.push_back(call.back());
          }
        });
  }
};

using Values = std::vector<std::uint64_t>;

TEST(WhiteboardCache, BuildsOncePerBoardState) {
  Whiteboard board;
  board.append(bits_of(1, 2));
  ViewProbe probe;
  EXPECT_EQ(probe.view(board).values, Values{1});
  EXPECT_EQ(probe.view(board).values, Values{1});
  EXPECT_EQ(probe.inits, 1);
  EXPECT_EQ(probe.extends.size(), 1u);
}

TEST(WhiteboardCache, AppendExtends) {
  // An append keeps the view; the next call folds in only the new message.
  Whiteboard board;
  ViewProbe probe;
  EXPECT_TRUE(probe.view(board).values.empty());
  board.append(bits_of(1, 2));
  EXPECT_EQ(probe.view(board).values, Values{1});
  EXPECT_EQ(probe.inits, 1);
  EXPECT_EQ(probe.extends, (std::vector<Values>{{}, {1}}));
}

TEST(WhiteboardCache, ExtendSeesExactlyTheAppendedRange) {
  Whiteboard board;
  board.append(bits_of(1, 4));
  board.append(bits_of(2, 4));
  ViewProbe probe;
  (void)probe.view(board);
  board.append(bits_of(3, 4));
  board.append(bits_of(4, 4));
  board.append(bits_of(5, 4));
  EXPECT_EQ(probe.view(board).values, (Values{1, 2, 3, 4, 5}));
  EXPECT_EQ(probe.inits, 1);
  EXPECT_EQ(probe.extends, (std::vector<Values>{{1, 2}, {3, 4, 5}}));
}

TEST(WhiteboardCache, DistinctViewTypesDoNotMix) {
  struct CountView {
    std::size_t messages = 0;
  };
  struct SumView {
    std::size_t bits = 0;
  };
  Whiteboard board;
  board.append(bits_of(7, 8));
  const auto count = [&board]() -> const CountView& {
    return board.cached_view<CountView>(
        [] { return CountView{}; },
        [](CountView& v, std::span<const Bits> appended) {
          v.messages += appended.size();
        });
  };
  const auto sum = [&board]() -> const SumView& {
    return board.cached_view<SumView>(
        [] { return SumView{}; },
        [](SumView& v, std::span<const Bits> appended) {
          for (const Bits& m : appended) v.bits += m.size();
        });
  };
  EXPECT_EQ(count().messages, 1u);
  EXPECT_EQ(sum().bits, 8u);
  board.append(bits_of(1, 4));
  EXPECT_EQ(count().messages, 2u);
  EXPECT_EQ(sum().bits, 12u);
}

TEST(WhiteboardCache, CopiesShareThePrefixSafely) {
  // The exhaustive explorer copies boards at branch points; a copy's append
  // must neither mutate nor rebuild the original's cached view.
  Whiteboard original;
  original.append(bits_of(1, 4));
  ViewProbe probe;
  const ViewProbe::Log* before = &probe.view(original);

  Whiteboard copy = original;
  copy.append(bits_of(2, 4));
  EXPECT_EQ(probe.view(copy).values, (Values{1, 2}));
  EXPECT_EQ(probe.inits, 2);  // the shared slot was rebuilt, not extended
  EXPECT_EQ(&probe.view(original), before);
  EXPECT_EQ(before->values, Values{1});
  EXPECT_EQ(probe.inits, 2);  // the original's view survived the append

  // Each board now holds its own slot and extends it in place.
  original.append(bits_of(3, 4));
  EXPECT_EQ(&probe.view(original), before);
  EXPECT_EQ(before->values, (Values{1, 3}));
  EXPECT_EQ(probe.view(copy).values, (Values{1, 2}));
  EXPECT_EQ(probe.inits, 2);
}

TEST(WhiteboardCache, SnapshotsNeverSeeAMutation) {
  // finish() snapshots the board into an ExecutionResult that shares the
  // slot; the engine's next append must not extend the snapshot's view.
  Whiteboard board;
  board.append(bits_of(1, 4));
  ViewProbe probe;
  (void)probe.view(board);
  const Whiteboard snapshot = board;
  board.append(bits_of(2, 4));
  EXPECT_EQ(probe.view(board).values, (Values{1, 2}));
  EXPECT_EQ(probe.view(snapshot).values, Values{1});
  EXPECT_EQ(probe.inits, 2);
}

TEST(WhiteboardCache, TruncateBelowTheViewRebuildsIt) {
  Whiteboard board;
  board.append(bits_of(1, 4));
  board.append(bits_of(2, 4));
  ViewProbe probe;
  (void)probe.view(board);
  board.truncate(1);
  board.append(bits_of(7, 4));
  EXPECT_EQ(probe.view(board).values, (Values{1, 7}));
  EXPECT_EQ(probe.inits, 2);
}

TEST(WhiteboardCache, TruncateAtOrAboveTheViewKeepsIt) {
  Whiteboard board;
  board.append(bits_of(1, 4));
  ViewProbe probe;
  (void)probe.view(board);  // a view of count 1
  board.append(bits_of(2, 4));
  board.append(bits_of(3, 4));
  board.truncate(2);  // above the view
  EXPECT_EQ(probe.view(board).values, (Values{1, 2}));
  board.truncate(2);  // at the view
  EXPECT_EQ(probe.view(board).values, (Values{1, 2}));
  board.append(bits_of(4, 4));
  EXPECT_EQ(probe.view(board).values, (Values{1, 2, 4}));
  EXPECT_EQ(probe.inits, 1);
  EXPECT_EQ(probe.extends, (std::vector<Values>{{1}, {2}, {4}}));
}

TEST(WhiteboardCache, ExtendThatThrowsLeavesNoPartialView) {
  // A decoder that rejects a message must not leave a half-extended slot:
  // the next call rebuilds and rejects the same message again.
  Whiteboard board;
  board.append(bits_of(1, 4));
  int inits = 0;
  const auto view = [&]() -> const std::vector<std::uint64_t>& {
    return board.cached_view<std::vector<std::uint64_t>>(
        [&inits] {
          ++inits;
          return std::vector<std::uint64_t>{};
        },
        [](std::vector<std::uint64_t>& v, std::span<const Bits> appended) {
          for (const Bits& m : appended) {
            BitReader r(m);
            const std::uint64_t value = r.read_uint(4);
            WB_REQUIRE_MSG(value != 15, "bad message");
            v.push_back(value);
          }
        });
  };
  EXPECT_EQ(view().size(), 1u);
  board.append(bits_of(2, 4));
  board.append(bits_of(15, 4));
  EXPECT_THROW((void)view(), DataError);
  EXPECT_THROW((void)view(), DataError);
  EXPECT_EQ(inits, 2);
  board.truncate(2);
  EXPECT_EQ(view(), (std::vector<std::uint64_t>{1, 2}));
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

/// content_hash() as first defined: rehash every message from scratch.
Hash128 from_scratch_hash(const Whiteboard& board) {
  Hasher128 h;
  for (const Bits& m : board.messages()) {
    h.update(m.size());
    for (std::size_t w = 0; w < m.word_count(); ++w) h.update(m.word(w));
  }
  return h.digest();
}

TEST(Whiteboard, RunningHashMatchesAFromScratchHashUnderRandomHistories) {
  // Boards that append, truncate, reserve, copy from one another and then
  // diverge: the stored running hash must track the messages through every
  // clone of the shared storage. A model of plain message vectors pins the
  // contents themselves.
  Rng rng(20261019);
  std::vector<Whiteboard> boards(4);
  std::vector<std::vector<Bits>> model(4);
  for (int step = 0; step < 4000; ++step) {
    const std::size_t i = rng.below(boards.size());
    switch (rng.below(5)) {
      case 0:
      case 1: {  // append a random message of 0..150 bits
        const std::size_t n_bits = rng.below(151);
        std::vector<std::uint64_t> words((n_bits + 63) / 64 + 1);
        for (auto& w : words) w = rng.next();
        Bits m(words, n_bits);
        model[i].push_back(m);
        boards[i].append(std::move(m));
        break;
      }
      case 2: {  // truncate
        const std::size_t keep = rng.below(model[i].size() + 1);
        model[i].resize(keep);
        boards[i].truncate(keep);
        break;
      }
      case 3: {  // copy another board (shares its storage)
        const std::size_t j = rng.below(boards.size());
        boards[i] = boards[j];
        model[i] = model[j];
        break;
      }
      case 4:
        boards[i].reserve(model[i].size() + rng.below(8));
        break;
    }
    for (std::size_t b = 0; b < boards.size(); ++b) {
      ASSERT_EQ(boards[b].message_count(), model[b].size()) << step;
      for (std::size_t m = 0; m < model[b].size(); ++m) {
        ASSERT_TRUE(boards[b].message(m) == model[b][m]) << step;
      }
      ASSERT_EQ(boards[b].content_hash(), from_scratch_hash(boards[b]))
          << "step " << step << " board " << b;
    }
  }
}

TEST(WhiteboardCache, SurvivesTruncateBackToTheCachedPrefix) {
  // truncate() keeps a cached view of a still-live prefix: the explorer
  // rewinds to a checkpoint and must not re-parse the unchanged board.
  Whiteboard board;
  board.append(bits_of(1, 2));
  ViewProbe probe;
  EXPECT_EQ(probe.view(board).values, Values{1});
  board.append(bits_of(2, 2));
  EXPECT_EQ(probe.view(board).values, (Values{1, 2}));
  board.truncate(2);  // no-op truncate keeps the count-2 view
  EXPECT_EQ(probe.view(board).values, (Values{1, 2}));
  EXPECT_EQ(probe.inits, 1);
  board.truncate(1);
  board.append(bits_of(3, 2));  // count back to 2, but different content
  EXPECT_EQ(probe.view(board).values, (Values{1, 3}));
  EXPECT_EQ(probe.inits, 2);  // truncate dropped the stale count-2 view
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
