#include "src/protocols/two_cliques.h"

#include <gtest/gtest.h>

#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"
#include "src/wb/faults.h"

namespace wb {
namespace {

/// Side assignments must be constant on each clique and split 0/1.
bool sides_are_consistent(const Graph& g, const TwoCliquesOutput& out) {
  if (!out.yes) return false;
  const Components c = connected_components(g);
  if (c.count != 2) return false;
  for (NodeId u = 1; u <= g.node_count(); ++u) {
    for (NodeId v = u + 1; v <= g.node_count(); ++v) {
      const bool same_comp = c.component[u - 1] == c.component[v - 1];
      const bool same_side = out.side[u - 1] == out.side[v - 1];
      if (same_comp != same_side) return false;
    }
  }
  return true;
}

TEST(TwoCliques, YesInstancesEverySchedule) {
  // (2n)! schedules: 2, 24, 720, 40320 — all within the explorer's budget.
  for (std::size_t n : {1u, 2u, 3u, 4u}) {
    const Graph g = two_cliques(n);
    const TwoCliquesProtocol p;
    EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
      const TwoCliquesOutput out = p.output(r.board, 2 * n);
      return out.yes && (n == 1 || sides_are_consistent(g, out));
    })) << "n=" << n;
  }
}

TEST(TwoCliques, YesInstanceN4SampledSchedules) {
  const Graph g = two_cliques(4);
  const TwoCliquesProtocol p;
  for (auto& adv : standard_adversaries(g, 31)) {
    const ExecutionResult r = run_protocol(g, p, *adv);
    ASSERT_TRUE(r.ok()) << adv->name();
    const TwoCliquesOutput out = p.output(r.board, 8);
    EXPECT_TRUE(out.yes) << adv->name();
    EXPECT_TRUE(sides_are_consistent(g, out)) << adv->name();
  }
}

TEST(TwoCliques, SwitchedNoInstancesEverySchedule) {
  // two_cliques_switched(3) is 2-regular connected on 6 nodes: a NO instance.
  const Graph g = two_cliques_switched(3);
  const TwoCliquesProtocol p;
  EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
    return !p.output(r.board, 6).yes;
  }));
}

TEST(TwoCliques, CycleC6IsANoInstanceEverySchedule) {
  // C6 is (n-1)=2-regular on 2n=6 nodes but connected: the count check (or a
  // conflict message) must reject it under *every* schedule — including the
  // all-one-side floods where no conflict is ever written.
  const Graph g = cycle_graph(6);
  const TwoCliquesProtocol p;
  EXPECT_TRUE(all_executions_ok(g, p, [&](const ExecutionResult& r) {
    return !p.output(r.board, 6).yes;
  }));
}

TEST(TwoCliques, LargerInstancesUnderBattery) {
  for (std::size_t n : {5u, 9u, 16u}) {
    const Graph yes = two_cliques(n);
    const Graph no = two_cliques_switched(n);
    const TwoCliquesProtocol p;
    for (auto& adv : standard_adversaries(yes, n)) {
      const ExecutionResult r = run_protocol(yes, p, *adv);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(p.output(r.board, 2 * n).yes) << "n=" << n << " " << adv->name();
    }
    for (auto& adv : standard_adversaries(no, n)) {
      const ExecutionResult r = run_protocol(no, p, *adv);
      ASSERT_TRUE(r.ok());
      EXPECT_FALSE(p.output(r.board, 2 * n).yes) << "n=" << n << " " << adv->name();
    }
  }
}

TEST(TwoCliques, MessageIsLogN) {
  const TwoCliquesProtocol p;
  EXPECT_LE(p.message_bit_limit(4096), 12u + 2u);
}

}  // namespace
}  // namespace wb
