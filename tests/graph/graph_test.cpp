#include "src/graph/graph.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/support/check.h"

namespace wb {
namespace {

TEST(Graph, EmptyGraph) {
  const Graph g(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  for (NodeId v = 1; v <= 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(Graph, FromEdgeList) {
  const std::vector<Edge> edges = {{1, 2}, {2, 3}, {1, 3}};
  const Graph g(4, edges);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(4), 0u);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(1, 4));
  EXPECT_FALSE(g.has_edge(2, 2));
}

TEST(Graph, NeighborsAreSorted) {
  const std::vector<Edge> edges = {{2, 5}, {1, 2}, {2, 3}, {2, 4}};
  const Graph g(5, edges);
  const auto nb = g.neighbors(2);
  ASSERT_EQ(nb.size(), 4u);
  EXPECT_EQ(nb[0], 1u);
  EXPECT_EQ(nb[1], 3u);
  EXPECT_EQ(nb[2], 4u);
  EXPECT_EQ(nb[3], 5u);
}

TEST(Graph, RejectsDuplicateEdges) {
  const std::vector<Edge> edges = {{1, 2}, {1, 2}};
  EXPECT_THROW(Graph(3, edges), LogicError);
}

TEST(Graph, RejectsOutOfRangeEndpoints) {
  const std::vector<Edge> edges = {{1, 7}};
  EXPECT_THROW(Graph(3, edges), LogicError);
}

TEST(Graph, IdRangeChecked) {
  const Graph g(3);
  EXPECT_THROW((void)g.degree(0), LogicError);
  EXPECT_THROW((void)g.degree(4), LogicError);
}

TEST(MakeEdge, NormalizesOrder) {
  const Edge e = make_edge(5, 2);
  EXPECT_EQ(e.u, 2u);
  EXPECT_EQ(e.v, 5u);
  EXPECT_THROW((void)make_edge(3, 3), LogicError);
}

TEST(GraphBuilder, DeduplicatesAndBuilds) {
  GraphBuilder b(4);
  EXPECT_TRUE(b.add_edge(1, 2));
  EXPECT_FALSE(b.add_edge(2, 1));  // same edge
  EXPECT_TRUE(b.add_edge(3, 4));
  EXPECT_TRUE(b.has_edge(4, 3));
  EXPECT_FALSE(b.has_edge(1, 3));
  const Graph g = b.build();
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(GraphBuilder, RejectsSelfLoop) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(2, 2), LogicError);
}

TEST(Graph, EqualityIsStructural) {
  const std::vector<Edge> e1 = {{1, 2}, {2, 3}};
  const std::vector<Edge> e2 = {{2, 3}, {1, 2}};
  EXPECT_EQ(Graph(3, e1), Graph(3, e2));
  EXPECT_FALSE(Graph(3, e1) == Graph(4, e1));
  const std::vector<Edge> e3 = {{1, 2}};
  EXPECT_FALSE(Graph(3, e1) == Graph(3, e3));
}

TEST(Relabel, PermutesEdges) {
  const std::vector<Edge> edges = {{1, 2}, {2, 3}};
  const Graph g(3, edges);
  const std::vector<NodeId> perm = {3, 1, 2};  // 1->3, 2->1, 3->2
  const Graph h = relabel(g, perm);
  EXPECT_TRUE(h.has_edge(3, 1));
  EXPECT_TRUE(h.has_edge(1, 2));
  EXPECT_FALSE(h.has_edge(2, 3));
}

TEST(Relabel, RejectsNonPermutations) {
  const Graph g(3);
  const std::vector<NodeId> bad = {1, 1, 2};
  EXPECT_THROW((void)relabel(g, bad), LogicError);
}

// --- Packed-CSR surface: bulk construction, edge adapter, memory ---

TEST(FromUnsortedEdges, NormalizesSortsAndDedups) {
  std::vector<Edge> messy = {{3, 2}, {2, 1}, {1, 2}, {4, 3}, {2, 3}};
  const Graph g = Graph::from_unsorted_edges(4, std::move(messy));
  EXPECT_EQ(g, Graph(4, {{1, 2}, {2, 3}, {3, 4}}));
}

TEST(FromUnsortedEdges, RejectsBadEndpointsAndLoops) {
  EXPECT_THROW((void)Graph::from_unsorted_edges(3, {{1, 4}}), LogicError);
  EXPECT_THROW((void)Graph::from_unsorted_edges(3, {{0, 2}}), LogicError);
  EXPECT_THROW((void)Graph::from_unsorted_edges(3, {{2, 2}}), LogicError);
}

TEST(EdgeRange, MatchesEdgeVectorAndIsSorted) {
  const Graph g(5, {{1, 2}, {1, 5}, {2, 3}, {3, 4}, {4, 5}});
  const std::vector<Edge> want = {{1, 2}, {1, 5}, {2, 3}, {3, 4}, {4, 5}};
  std::vector<Edge> seen;
  for (const Edge e : g.edges()) seen.push_back(e);
  EXPECT_EQ(seen, want);
  EXPECT_EQ(g.edge_vector(), want);
  EXPECT_EQ(g.edges().size(), g.edge_count());
}

TEST(EdgeRange, EmptyAndIsolatedNodes) {
  const Graph empty(4);
  EXPECT_EQ(empty.edges().begin(), empty.edges().end());
  // Isolated node 2 in the middle: the adapter must cross its empty block.
  const Graph g(3, {{1, 3}});
  std::vector<Edge> seen;
  for (const Edge e : g.edges()) seen.push_back(e);
  EXPECT_EQ(seen, (std::vector<Edge>{{1, 3}}));
}

TEST(FromPairStream, SymmetrizesAndReportsStats) {
  // Pairs in both orientations with a self-loop and a duplicate.
  const std::vector<std::pair<NodeId, NodeId>> pairs = {
      {2, 1}, {1, 2}, {3, 3}, {2, 3}, {1, 3}};
  Graph::BuildStats stats;
  const Graph g = Graph::from_pair_stream(
      3,
      [&](const Graph::PairSink& sink) {
        for (const auto& [a, b] : pairs) sink(a, b);
      },
      &stats);
  EXPECT_EQ(g, Graph(3, {{1, 2}, {1, 3}, {2, 3}}));
  EXPECT_EQ(stats.pairs, 5u);
  EXPECT_EQ(stats.self_loops_dropped, 1u);
  EXPECT_EQ(stats.duplicates_dropped, 1u);
  EXPECT_GE(stats.peak_bytes, g.memory_bytes());
}

TEST(FromPairStream, RejectsNonDeterministicReplay) {
  int pass = 0;
  EXPECT_THROW((void)Graph::from_pair_stream(
                   2,
                   [&](const Graph::PairSink& sink) {
                     sink(1, 2);
                     if (++pass > 1) sink(1, 2);  // extra pair on replay
                   }),
               LogicError);
  // Same pair count, but the replay piles node 3's arcs past the end of
  // the adjacency array, or names a node outside 1..n.
  const std::pair<NodeId, NodeId> replays[] = {{3, 2}, {1, 4}};
  for (const auto& replay : replays) {
    pass = 0;
    EXPECT_THROW((void)Graph::from_pair_stream(
                     3,
                     [&](const Graph::PairSink& sink) {
                       if (++pass == 1) {
                         sink(1, 2);
                         sink(1, 3);
                       } else {
                         sink(replay.first, replay.second);
                         sink(replay.first, replay.second);
                       }
                     }),
                 LogicError)
        << replay.first << "," << replay.second;
  }
}

TEST(FromPairStream, RejectsOutOfRangePairs) {
  EXPECT_THROW(
      (void)Graph::from_pair_stream(
          2, [](const Graph::PairSink& sink) { sink(1, 3); }),
      LogicError);
}

TEST(MemoryBytes, TracksCsrFootprint) {
  const Graph g(100, {{1, 2}, {50, 99}});
  // offsets: (n+1) u64; adjacency: 2m u32 — capacities may round up.
  EXPECT_GE(g.memory_bytes(), 101 * sizeof(std::uint64_t) + 4 * sizeof(NodeId));
}

TEST(GraphBuilder, ManyEdgesStayLinear) {
  // Regression guard for the old O(m^2) insertion path: 50k edges through
  // the builder must be effectively instant.
  const std::size_t n = 1000;
  GraphBuilder b(n);
  for (NodeId u = 1; u <= n; ++u) {
    for (NodeId v = u + 1; v <= u + 100 && v <= n; ++v) b.add_edge(u, v);
  }
  EXPECT_FALSE(b.add_edge(1, 2));  // duplicate still detected
  const Graph g = b.build();
  EXPECT_EQ(g.degree(500), 200u);
}

}  // namespace
}  // namespace wb
