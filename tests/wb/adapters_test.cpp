// Executable Lemma 4: protocols of a smaller class, run through the adapters
// under a larger class's engine semantics, keep solving their problem.
#include "src/wb/adapters.h"

#include <gtest/gtest.h>

#include <initializer_list>

#include "src/graph/algorithms.h"
#include "src/graph/enumerate.h"
#include "src/graph/generators.h"
#include "src/protocols/build_degenerate.h"
#include "src/protocols/build_forest.h"
#include "src/protocols/eob_bfs.h"
#include "src/protocols/mis.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"
#include "src/wb/faults.h"

namespace wb {
namespace {

TEST(Adapters, SimAsyncBuildRunsUnderSimSync) {
  const Graph g = random_forest(14, 80, 3);
  const BuildForestProtocol inner;
  const SimAsyncInSimSync<BuildOutput> wrapped(inner);
  EXPECT_EQ(wrapped.model_class(), ModelClass::kSimSync);
  for (auto& adv : standard_adversaries(g, 5)) {
    const ExecutionResult r = run_protocol(g, wrapped, *adv);
    ASSERT_TRUE(r.ok()) << adv->name();
    const BuildOutput out = wrapped.output(r.board, 14);
    ASSERT_TRUE(out.has_value()) << adv->name();
    EXPECT_EQ(*out, g) << adv->name();
  }
}

TEST(Adapters, SimAsyncBuildRebadgedToAsync) {
  const Graph g = random_k_degenerate(12, 2, 25, 7);
  const BuildDegenerateProtocol inner(2);
  const Rebadge<BuildOutput> wrapped(inner, ModelClass::kAsync);
  EXPECT_EQ(wrapped.model_class(), ModelClass::kAsync);
  const ExecutionResult r = run_protocol(g, wrapped);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*wrapped.output(r.board, 12), g);
}

TEST(Adapters, RebadgeRejectsInvalidMoves) {
  const BuildForestProtocol simasync;
  EXPECT_THROW(Rebadge<BuildOutput>(simasync, ModelClass::kSimSync),
               LogicError);
  const RootedMisProtocol simsync(1);
  EXPECT_THROW(Rebadge<MisOutput>(simsync, ModelClass::kAsync), LogicError);
}

TEST(Adapters, SimSyncMisRunsUnderAsyncInForcedOrder) {
  const Graph g = connected_gnp(10, 1, 3, 11);
  const RootedMisProtocol inner(4);
  const SimSyncInAsync<MisOutput> wrapped(inner);
  EXPECT_EQ(wrapped.model_class(), ModelClass::kAsync);
  for (auto& adv : standard_adversaries(g, 3)) {
    const ExecutionResult r = run_protocol(g, wrapped, *adv);
    ASSERT_TRUE(r.ok()) << adv->name();
    // The sequential-activation construction forces write order v_1..v_n —
    // the adversary never has more than one candidate.
    std::vector<NodeId> expect(10);
    for (NodeId v = 1; v <= 10; ++v) expect[v - 1] = v;
    EXPECT_EQ(r.write_order, expect) << adv->name();
    EXPECT_TRUE(is_rooted_mis(g, wrapped.output(r.board, 10), 4))
        << adv->name();
  }
}

TEST(Adapters, AsyncEobBfsRunsUnderSync) {
  const Graph g = connected_even_odd_bipartite(11, 1, 4, 9);
  const EobBfsProtocol inner;
  const AsyncInSync<BfsProtocolOutput> wrapped(inner);
  EXPECT_EQ(wrapped.model_class(), ModelClass::kSync);
  for (auto& adv : standard_adversaries(g, 13)) {
    const ExecutionResult r = run_protocol(g, wrapped, *adv);
    ASSERT_TRUE(r.ok()) << adv->name();
    const BfsProtocolOutput out = wrapped.output(r.board, 11);
    ASSERT_TRUE(out.valid) << adv->name();
    EXPECT_TRUE(is_valid_bfs_forest(g, out.layer, out.parent)) << adv->name();
  }
}

TEST(Adapters, AsyncInSyncMatchesNativeAsyncExhaustively) {
  // Every schedule of the wrapped protocol must still succeed and agree with
  // the reference BFS layers.
  const Graph g = connected_even_odd_bipartite(6, 1, 3, 21);
  const EobBfsProtocol inner;
  const AsyncInSync<BfsProtocolOutput> wrapped(inner);
  const BfsForest ref = bfs_forest(g);
  EXPECT_TRUE(all_executions_ok(g, wrapped, [&](const ExecutionResult& r) {
    const BfsProtocolOutput out = wrapped.output(r.board, 6);
    return out.valid && out.layer == ref.layer;
  }));
}

TEST(Adapters, FullChainReconstructsIdentically) {
  // SIMASYNC protocol pushed through the whole lattice: native, @simsync,
  // @async, and @async@sync — all four engines reconstruct the same graph.
  const Graph g = random_k_degenerate(10, 2, 30, 17);
  const BuildDegenerateProtocol native(2);
  const SimAsyncInSimSync<BuildOutput> at_simsync(native);
  const Rebadge<BuildOutput> at_async(native, ModelClass::kAsync);
  const AsyncInSync<BuildOutput> at_sync(at_async);

  const Protocol* protocols[] = {&native, &at_simsync, &at_async, &at_sync};
  const ModelClass classes[] = {ModelClass::kSimAsync, ModelClass::kSimSync,
                                ModelClass::kAsync, ModelClass::kSync};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(protocols[i]->model_class(), classes[i]);
  }
  for (const auto* typed : {static_cast<const ProtocolWithOutput<BuildOutput>*>(
                                &native),
                            static_cast<const ProtocolWithOutput<BuildOutput>*>(
                                &at_simsync),
                            static_cast<const ProtocolWithOutput<BuildOutput>*>(
                                &at_async),
                            static_cast<const ProtocolWithOutput<BuildOutput>*>(
                                &at_sync)}) {
    LastAdversary adv;
    const ExecutionResult r = run_protocol(g, *typed, adv);
    ASSERT_TRUE(r.ok()) << typed->name();
    EXPECT_EQ(*typed->output(r.board, 10), g) << typed->name();
  }
}

// ---------------------------------------------------------------------------
// Lemma 4 as a metamorphic table: SIMASYNC ⊆ SIMSYNC ⊆ ASYNC ⊆ SYNC, so on
// every graph of a family (all of them with n ≤ 5, from src/graph/enumerate.h)
// where the native protocol is correct over all schedules, each lift to an
// enclosing class must be correct over all of its schedules too. Becker et
// al. (arXiv:1109.6534) study where the inclusions are strict; this table
// pins the direction that must always hold.

/// Whether `p` is correct over every schedule of `g`: the all_executions_ok
/// wrapper over the one sweep loop, with `check` judging each output.
template <typename OutputT, typename Check>
bool correct_everywhere(const Graph& g, const ProtocolWithOutput<OutputT>& p,
                        const Check& check) {
  return all_executions_ok(g, p, [&](const ExecutionResult& r) {
    return check(p.output(r.board, g.node_count()));
  });
}

/// One row of the table: returns whether the native protocol qualifies on
/// `g` and, if it does, expects every lift to stay correct.
template <typename OutputT, typename Check>
bool lifts_stay_correct(
    const Graph& g, const ProtocolWithOutput<OutputT>& native,
    std::initializer_list<const ProtocolWithOutput<OutputT>*> lifts,
    const Check& check) {
  if (!correct_everywhere(g, native, check)) return false;
  for (const ProtocolWithOutput<OutputT>* lift : lifts) {
    EXPECT_GT(static_cast<int>(lift->model_class()),
              static_cast<int>(native.model_class()))
        << lift->name() << " does not lift to an enclosing class";
    EXPECT_TRUE(correct_everywhere(g, *lift, check))
        << lift->name() << " on n=" << g.node_count()
        << " m=" << g.edge_count();
  }
  return true;
}

TEST(Lemma4, BuildForestLiftsStayCorrectOnEveryLabeledForest) {
  const BuildForestProtocol native;  // SIMASYNC
  const SimAsyncInSimSync<BuildOutput> at_simsync(native);
  const Rebadge<BuildOutput> at_async(native, ModelClass::kAsync);
  const SimSyncInAsync<BuildOutput> at_async_ordered(at_simsync);
  const Rebadge<BuildOutput> at_sync(at_simsync, ModelClass::kSync);
  const AsyncInSync<BuildOutput> at_async_sync(at_async);
  std::size_t rows = 0;
  for (std::size_t n = 1; n <= 5; ++n) {
    for_each_labeled_forest(n, [&](const Graph& g) {
      rows += lifts_stay_correct(
          g, native,
          {&at_simsync, &at_async, &at_async_ordered, &at_sync,
           &at_async_sync},
          [&g](const BuildOutput& out) { return out.has_value() && *out == g; });
    });
  }
  EXPECT_EQ(rows, 1u + 2u + 7u + 38u + 291u);  // every labeled forest
}

TEST(Lemma4, RootedMisLiftsStayCorrectOnEveryConnectedGraph) {
  // Root 1 on every labeled graph covers every (graph, root) pair up to
  // relabeling.
  const RootedMisProtocol native(1);  // SIMSYNC
  const SimSyncInAsync<MisOutput> at_async(native);
  const Rebadge<MisOutput> at_sync(native, ModelClass::kSync);
  const AsyncInSync<MisOutput> at_async_sync(at_async);
  std::size_t rows = 0;
  for (std::size_t n = 1; n <= 5; ++n) {
    for_each_connected_graph(n, [&](const Graph& g) {
      rows += lifts_stay_correct(
          g, native, {&at_async, &at_sync, &at_async_sync},
          [&g](const MisOutput& out) { return is_rooted_mis(g, out, 1); });
    });
  }
  EXPECT_EQ(rows, 1u + 1u + 4u + 38u + 728u);  // every connected graph
}

TEST(Lemma4, EobBfsLiftStaysCorrectOnEveryEvenOddBipartiteGraph) {
  const EobBfsProtocol native;  // ASYNC
  const AsyncInSync<BfsProtocolOutput> at_sync(native);
  std::size_t rows = 0;
  for (std::size_t n = 1; n <= 5; ++n) {
    for_each_even_odd_bipartite_graph(n, [&](const Graph& g) {
      const BfsForest ref = bfs_forest(g);
      rows += lifts_stay_correct(
          g, native, {&at_sync}, [&](const BfsProtocolOutput& out) {
            return out.valid && out.layer == ref.layer &&
                   is_valid_bfs_forest(g, out.layer, out.parent);
          });
    });
  }
  EXPECT_EQ(rows, 1u + 2u + 4u + 16u + 64u);  // every such graph
}

}  // namespace
}  // namespace wb
