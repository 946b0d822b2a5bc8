// Frontier-round equivalence: the engine runs the frontier round whenever a
// state does not journal and the reference round when it does, and the
// choice must be a pure optimization. Both rounds honor a protocol's
// locality claims, so the oracle side here is a journaling (reference)
// state running the protocol inside testing::ClaimFreeProtocol, which
// claims nothing. Every suite runs that oracle in lockstep with a plain
// (frontier) state on the protocol itself — same graph, same adversary
// choices — and requires bit-identical observables at every round:
// candidate sets, whiteboard contents, terminal status, error strings,
// stats, write order, and trace. The exhaustive suites branch over *every*
// adversary schedule on small instances, so a locality claim a protocol
// does not honor (or a frontier bookkeeping bug) cannot hide behind one
// lucky ordering.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "src/protocols/bfs_sync.h"
#include "src/protocols/eob_bfs.h"
#include "src/protocols/mis.h"
#include "src/protocols/oracles.h"
#include "src/protocols/two_cliques.h"
#include "src/support/check.h"
#include "src/wb/engine.h"
#include "tests/wb/test_protocols.h"

namespace wb {
namespace {

void ExpectSameResult(const ExecutionResult& ref, const ExecutionResult& fro) {
  EXPECT_EQ(ref.status, fro.status);
  EXPECT_EQ(ref.error, fro.error);
  ASSERT_EQ(ref.board.message_count(), fro.board.message_count());
  for (std::size_t i = 0; i < ref.board.message_count(); ++i) {
    EXPECT_TRUE(ref.board.message(i) == fro.board.message(i))
        << "message " << i;
  }
  EXPECT_EQ(ref.board.total_bits(), fro.board.total_bits());
  EXPECT_EQ(ref.write_order, fro.write_order);
  EXPECT_EQ(ref.stats.rounds, fro.stats.rounds);
  EXPECT_EQ(ref.stats.writes, fro.stats.writes);
  EXPECT_EQ(ref.stats.max_message_bits, fro.stats.max_message_bits);
  EXPECT_EQ(ref.stats.total_bits, fro.stats.total_bits);
  EXPECT_EQ(ref.stats.activation_round, fro.stats.activation_round);
  EXPECT_EQ(ref.stats.write_round, fro.stats.write_round);
  ASSERT_EQ(ref.trace.size(), fro.trace.size());
  for (std::size_t i = 0; i < ref.trace.size(); ++i) {
    EXPECT_EQ(ref.trace[i].round, fro.trace[i].round) << "trace event " << i;
    EXPECT_EQ(ref.trace[i].kind, fro.trace[i].kind) << "trace event " << i;
    EXPECT_EQ(ref.trace[i].node, fro.trace[i].node) << "trace event " << i;
  }
}

constexpr EngineOptions kTraced{.record_trace = true};

/// A state that runs the reference round: journaling selects it. Pass a
/// testing::ClaimFreeProtocol to get the claim-free oracle.
EngineState ReferenceState(const Graph& g, const Protocol& p) {
  EngineState s(g, p, kTraced);
  s.set_journaling(true);
  return s;
}

/// Explores every adversary schedule, advancing a reference state and a
/// frontier state in lockstep and comparing all observables at each round.
/// Branching copies both states (EngineState copies are cheap; a frontier
/// state cannot rewind, so copying is the one way to branch it).
class LockstepExplorer {
 public:
  LockstepExplorer(const Graph& g, const Protocol& p)
      : graph_(g), claim_free_(p) {
    Explore(ReferenceState(g, claim_free_), EngineState(g, p, kTraced));
  }

  [[nodiscard]] std::size_t executions() const { return executions_; }

 private:
  void Explore(EngineState ref, EngineState fro) {
    while (true) {
      ref.begin_round();
      fro.begin_round();
      ASSERT_EQ(ref.terminal(), fro.terminal())
          << "round " << ref.round() << " on n=" << graph_.node_count();
      ASSERT_EQ(ref.round(), fro.round());
      if (ref.terminal()) {
        ExpectSameResult(std::move(ref).finish(), std::move(fro).finish());
        ++executions_;
        return;
      }
      const std::vector<NodeId> cands(ref.candidates().begin(),
                                      ref.candidates().end());
      const std::vector<NodeId> fro_cands(fro.candidates().begin(),
                                          fro.candidates().end());
      ASSERT_EQ(cands, fro_cands) << "round " << ref.round();
      if (cands.size() == 1) {
        ref.write(0);
        fro.write(0);
        continue;
      }
      for (std::size_t i = 0; i < cands.size(); ++i) {
        EngineState ref_branch = ref;
        EngineState fro_branch = fro;
        ref_branch.write(i);
        fro_branch.write(i);
        Explore(std::move(ref_branch), std::move(fro_branch));
        if (::testing::Test::HasFatalFailure()) return;
      }
      return;
    }
  }

  const Graph& graph_;
  const testing::ClaimFreeProtocol claim_free_;
  std::size_t executions_ = 0;
};

std::vector<Graph> SmallGraphZoo() {
  std::vector<Graph> zoo;
  zoo.push_back(path_graph(4));
  zoo.push_back(cycle_graph(5));
  zoo.push_back(star_graph(5));
  zoo.push_back(complete_graph(4));
  zoo.push_back(two_cliques(2));
  zoo.push_back(grid_graph(2, 2));
  zoo.push_back(empty_graph(3));
  zoo.push_back(random_tree(5, 7));
  return zoo;
}

void ExhaustiveEquivalence(const Protocol& p) {
  for (const Graph& g : SmallGraphZoo()) {
    LockstepExplorer explorer(g, p);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << p.name() << " diverged on n=" << g.node_count()
             << " m=" << g.edge_count();
    }
    EXPECT_GT(explorer.executions(), 0u);
  }
}

// --- Exhaustive lockstep across the protocol zoo ---
// Locality-claiming protocols (the shortcut paths must stay bit-identical):

TEST(FrontierEquivalence, SyncBfsExhaustive) {
  ExhaustiveEquivalence(SyncBfsProtocol{});
}

TEST(FrontierEquivalence, SpanningForestExhaustive) {
  ExhaustiveEquivalence(SpanningForestProtocol{});
}

TEST(FrontierEquivalence, RootedMisExhaustive) {
  ExhaustiveEquivalence(RootedMisProtocol(1));
  ExhaustiveEquivalence(RootedMisProtocol(3));
}

TEST(FrontierEquivalence, RumorExhaustive) {
  ExhaustiveEquivalence(testing::RumorProtocol{});
}

TEST(FrontierEquivalence, GossipCountExhaustive) {
  ExhaustiveEquivalence(testing::GossipCountProtocol{});
}

// Protocols with no locality claim (the frontier round must fall back to full
// rescans and still match), including async, deadlocking, overflowing, and
// class-violating specimens:

TEST(FrontierEquivalence, TwoCliquesExhaustive) {
  TwoCliquesProtocol p;
  for (std::size_t k : {1u, 2u}) {
    LockstepExplorer explorer(two_cliques(k), p);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    EXPECT_GT(explorer.executions(), 0u);
  }
}

TEST(FrontierEquivalence, EobBfsExhaustive) {
  EobBfsProtocol p;
  for (const Graph& g : {path_graph(4),
                         connected_even_odd_bipartite(6, 1, 2, 11),
                         cycle_graph(4)}) {
    LockstepExplorer explorer(g, p);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    EXPECT_GT(explorer.executions(), 0u);
  }
}

TEST(FrontierEquivalence, EchoIdExhaustive) {
  ExhaustiveEquivalence(testing::EchoIdProtocol{});
}

TEST(FrontierEquivalence, BoardSizeExhaustive) {
  ExhaustiveEquivalence(testing::BoardSizeProtocol{});
}

TEST(FrontierEquivalence, FrozenBoardSizeExhaustive) {
  ExhaustiveEquivalence(testing::FrozenBoardSizeProtocol{});
}

TEST(FrontierEquivalence, OnlyFirstNodeDeadlockExhaustive) {
  ExhaustiveEquivalence(testing::OnlyFirstNodeProtocol{});
}

TEST(FrontierEquivalence, OversizeOverflowExhaustive) {
  ExhaustiveEquivalence(testing::OversizeProtocol{});
}

TEST(FrontierEquivalence, LazySimSyncProtocolErrorExhaustive) {
  ExhaustiveEquivalence(testing::LazySimSyncProtocol{});
}

// --- Deep single-schedule runs on larger instances ---

/// run_protocol's loop on a journaling state running `p` claim-free: the
/// reference round with every recompose.
ExecutionResult RunReference(const Graph& g, const Protocol& p,
                             Adversary& adv) {
  adv.reset();
  const testing::ClaimFreeProtocol claim_free(p);
  EngineState s = ReferenceState(g, claim_free);
  while (true) {
    s.begin_round();
    if (s.terminal()) return std::move(s).finish();
    s.write(adv.choose(s.candidates(), s.board(), s.round()));
  }
}

void DeepEquivalence(const Graph& g, const Protocol& p, Adversary& adv) {
  ExecutionResult ref = RunReference(g, p, adv);
  ExecutionResult fro = run_protocol(g, p, adv, kTraced);  // resets adv
  ExpectSameResult(ref, fro);
}

TEST(FrontierDeep, SyncBfsLargerGraphs) {
  SyncBfsProtocol p;
  FirstAdversary first;
  LastAdversary last;
  RandomAdversary random(12345);
  RotatingAdversary rotating;
  for (const Graph& g :
       {star_graph(64), path_graph(40), grid_graph(5, 8),
        erdos_renyi(30, 1, 5, 99), random_forest(32, 60, 5)}) {
    DeepEquivalence(g, p, first);
    DeepEquivalence(g, p, last);
    DeepEquivalence(g, p, random);
    DeepEquivalence(g, p, rotating);
  }
}

TEST(FrontierDeep, RootedMisLargerGraphs) {
  RootedMisProtocol p(1);
  RandomAdversary random(777);
  RotatingAdversary rotating;
  for (const Graph& g : {star_graph(50), cycle_graph(33), complete_graph(12),
                         erdos_renyi(24, 1, 3, 4321)}) {
    DeepEquivalence(g, p, random);
    DeepEquivalence(g, p, rotating);
  }
}

TEST(FrontierDeep, RumorFloodLargerGraphs) {
  testing::RumorProtocol p;
  FirstAdversary first;
  RandomAdversary random(31337);
  // Star: hub degree >> awake-set size exercises the bottom-up activation
  // scan; path: degree 2 << awake-set size exercises top-down.
  for (const Graph& g : {star_graph(80), path_graph(60), grid_graph(6, 6)}) {
    DeepEquivalence(g, p, first);
    DeepEquivalence(g, p, random);
  }
}

TEST(FrontierDeep, GossipCountLargerGraphs) {
  testing::GossipCountProtocol p;
  RandomAdversary random(2024);
  for (const Graph& g :
       {star_graph(48), path_graph(48), complete_bipartite(6, 9)}) {
    DeepEquivalence(g, p, random);
  }
}

// --- Seeded differential on RMAT graphs ---
// The instances `rmat_bfs` and the CLI run at scale, shrunk: 20 random
// schedules per protocol and scale, with every ExecutionResult field equal.

void RmatDifferential(int scale) {
  const Graph g = rmat_graph(scale, 8, static_cast<std::uint64_t>(scale));
  const SyncBfsProtocol sync_bfs;
  const EobBfsProtocol eob_bfs;
  for (const Protocol* p : {static_cast<const Protocol*>(&sync_bfs),
                            static_cast<const Protocol*>(&eob_bfs)}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(p->name() + " rmat:" + std::to_string(scale) +
                   " random:" + std::to_string(seed));
      RandomAdversary random(seed);
      DeepEquivalence(g, *p, random);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(FrontierDifferential, Rmat8) { RmatDifferential(8); }
TEST(FrontierDifferential, Rmat9) { RmatDifferential(9); }
TEST(FrontierDifferential, Rmat10) { RmatDifferential(10); }

// --- Frontier-specific engine semantics ---

TEST(FrontierEngine, JournalingSelectsTheReferenceRound) {
  // The rounds differ in one observable: the reference round rebuilds the
  // candidate buffer every round, so write() empties it, while the frontier
  // round keeps the remaining candidates across the write.
  const Graph g = complete_graph(4);
  testing::EchoIdProtocol p;
  EngineState reference = ReferenceState(g, p);
  EngineState frontier(g, p);
  reference.begin_round();
  frontier.begin_round();
  ASSERT_EQ(reference.candidates().size(), 4u);
  ASSERT_EQ(frontier.candidates().size(), 4u);
  reference.write(0);
  frontier.write(0);
  EXPECT_TRUE(reference.candidates().empty());
  EXPECT_EQ(frontier.candidates().size(), 3u);
  // The choice is fixed at the first begin_round(): journaling cannot be
  // switched on afterwards.
  EXPECT_THROW(frontier.set_journaling(true), LogicError);
}

TEST(FrontierEngine, SucceedsOnStar) {
  const Graph g = star_graph(32);
  SyncBfsProtocol p;
  ExecutionResult r = run_protocol(g, p);
  EXPECT_EQ(r.status, RunStatus::kSuccess);
  EXPECT_EQ(r.stats.writes, g.node_count());
  const BfsProtocolOutput out = p.output(r.board, g.node_count());
  ASSERT_TRUE(out.valid);
  ASSERT_EQ(out.layer.size(), g.node_count());
  EXPECT_EQ(out.layer[0], 0);  // center (node 1)
  for (std::size_t i = 1; i < out.layer.size(); ++i) {
    EXPECT_EQ(out.layer[i], 1);
  }
}

TEST(FrontierEngine, WriteNodeKeepsCandidatesInvariant) {
  // write_node must erase exactly the written node from the (sorted)
  // candidate buffer in the frontier round, so a caller-driven schedule
  // works.
  const Graph g = complete_graph(4);
  testing::EchoIdProtocol p;
  EngineState s(g, p);
  s.begin_round();
  ASSERT_EQ(s.candidates().size(), 4u);
  s.write_node(3);
  const std::vector<NodeId> expect{1, 2, 4};
  EXPECT_TRUE(std::equal(s.candidates().begin(), s.candidates().end(),
                         expect.begin(), expect.end()));
  s.begin_round();
  s.write_node(1);
  s.begin_round();
  s.write_node(4);
  s.begin_round();
  s.write_node(2);
  s.begin_round();
  EXPECT_TRUE(s.terminal());
  EXPECT_EQ(std::move(s).finish().status, RunStatus::kSuccess);
}

}  // namespace
}  // namespace wb
