#include "src/protocols/randomized.h"

#include <gtest/gtest.h>

#include <set>

#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"
#include "src/wb/faults.h"

namespace wb {
namespace {

TEST(RandomizedTwoCliques, YesInstancesAcceptedForEverySeed) {
  // Completeness is deterministic: same-clique nodes always fingerprint
  // identically, whatever the shared randomness.
  for (std::uint64_t seed : {1u, 2u, 3u, 17u, 999u}) {
    for (std::size_t n : {1u, 2u, 5u, 12u}) {
      const Graph g = two_cliques(n);
      const RandomizedTwoCliquesProtocol p(seed);
      FirstAdversary adv;
      const ExecutionResult r = run_protocol(g, p, adv);
      ASSERT_TRUE(r.ok());
      const TwoCliquesOutput out = p.output(r.board, 2 * n);
      EXPECT_TRUE(out.yes) << "seed=" << seed << " n=" << n;
      // Side assignment must separate the components.
      const Components c = connected_components(g);
      for (NodeId u = 1; u <= 2 * n; ++u) {
        for (NodeId v = u + 1; v <= 2 * n; ++v) {
          const bool same_comp = c.component[u - 1] == c.component[v - 1];
          EXPECT_EQ(same_comp, out.side[u - 1] == out.side[v - 1]);
        }
      }
    }
  }
}

TEST(RandomizedTwoCliques, NoInstancesRejectedAcrossSeeds) {
  // Soundness holds with high probability per seed; over 50 seeds and three
  // instance families we expect zero accepts (error ~ n/2^61).
  std::size_t accepts = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    for (const Graph& g :
         {two_cliques_switched(4), cycle_graph(8),
          two_cliques_switched(7)}) {
      const RandomizedTwoCliquesProtocol p(seed);
      FirstAdversary adv;
      const ExecutionResult r = run_protocol(g, p, adv);
      ASSERT_TRUE(r.ok());
      if (p.output(r.board, g.node_count()).yes) ++accepts;
    }
  }
  EXPECT_EQ(accepts, 0u);
}

TEST(RandomizedTwoCliques, OrderOblivious) {
  // SIMASYNC: the verdict cannot depend on the adversary's order.
  const Graph yes = two_cliques(3);
  const Graph no = two_cliques_switched(3);
  const RandomizedTwoCliquesProtocol p(7);
  EXPECT_TRUE(all_executions_ok(yes, p, [&](const ExecutionResult& r) {
    return p.output(r.board, 6).yes;
  }));
  EXPECT_TRUE(all_executions_ok(no, p, [&](const ExecutionResult& r) {
    return !p.output(r.board, 6).yes;
  }));
}

TEST(RandomizedTwoCliques, MessageIsLogNPlusFingerprint) {
  const RandomizedTwoCliquesProtocol p(1);
  // 61-bit fingerprint + id: constant + log n, well under o(n) for large n.
  EXPECT_LE(p.message_bit_limit(1u << 16), 16u + 61u);
}

TEST(RandomizedTwoCliques, FingerprintSeparatesNeighborhoods) {
  // Polynomial identity testing: distinct sets collide only with tiny
  // probability. Exhaustive over all pairs of distinct subsets of {1..10}
  // for a few random points: no collisions observed.
  std::vector<std::vector<NodeId>> subsets;
  for (std::uint32_t mask = 0; mask < (1u << 10); ++mask) {
    std::vector<NodeId> s;
    for (NodeId v = 1; v <= 10; ++v) {
      if ((mask >> (v - 1)) & 1u) s.push_back(v);
    }
    subsets.push_back(std::move(s));
  }
  for (std::uint64_t point : {12345u, 99999u, 31u}) {
    std::set<std::uint64_t> prints;
    std::size_t nonempty = 0;
    for (const auto& s : subsets) {
      if (s.empty()) continue;
      ++nonempty;
      prints.insert(RandomizedTwoCliquesProtocol::fingerprint(s, point));
    }
    EXPECT_EQ(prints.size(), nonempty) << "collision at point " << point;
  }
}

TEST(RandomizedTwoCliques, DifferentSeedsDifferentPoints) {
  // The fingerprints of a fixed set should vary with the seed (sanity that
  // the shared randomness is actually used).
  const Graph g = two_cliques(4);
  std::set<std::uint64_t> distinct_first_messages;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RandomizedTwoCliquesProtocol p(seed);
    FirstAdversary adv;
    const ExecutionResult r = run_protocol(g, p, adv);
    ASSERT_TRUE(r.ok());
    const Bits& m = r.board.message(0);
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < m.size() && i < 64; ++i) {
      key = (key << 1) | (m.bit(i) ? 1 : 0);
    }
    distinct_first_messages.insert(key);
  }
  EXPECT_GE(distinct_first_messages.size(), 7u);
}

}  // namespace
}  // namespace wb
