// Anonymous degree parade — a SIMSYNC[log n] protocol whose messages carry
// no identity.
//
// Every other protocol in the zoo signs its message with write_id, which
// makes the final whiteboard a faithful log of the adversary's schedule:
// distinct schedules always produce distinct boards. This protocol writes
// only deg(v) in id_bits(n) anonymous bits, so schedules that write
// same-degree nodes in swapped order *converge* to the same engine state.
// That convergence is what the paper's one-write model makes interesting
// (§1: with few bits the board no longer describes the graph — here it only
// carries the degree sequence) and what the memoized enumerator
// (ExhaustiveOptions::memoize) exercises directly: it shares converged
// subtrees, visiting far fewer states than schedules. The distinct final
// boards are the permutations of the degree multiset,
// n! / prod(multiplicity!).
//
// The output is the sorted written degree list; it is correct iff it equals
// the graph's degree sequence, which every schedule achieves — the protocol
// is trivially correct, and exists for its state-space shape.
#pragma once

#include <cstddef>
#include <vector>

#include "src/wb/protocol.h"

namespace wb {

/// Sorted (ascending) degrees read off the final whiteboard.
using AnonDegreeOutput = std::vector<std::size_t>;

class AnonDegreeProtocol final : public SimSyncProtocol<AnonDegreeOutput> {
 public:
  [[nodiscard]] std::size_t message_bit_limit(std::size_t n) const override;
  [[nodiscard]] Bits compose(const LocalView& view,
                             const Whiteboard& board) const override;
  [[nodiscard]] Bits compose(const LocalView& view, const Whiteboard& board,
                             BitWriter& scratch) const override;
  [[nodiscard]] AnonDegreeOutput output(const Whiteboard& board,
                                        std::size_t n) const override;
  /// The message is a function of the local view alone; no recomposition is
  /// ever needed after a neighbor writes.
  [[nodiscard]] FrontierLocality frontier_locality() const override {
    return {.activate_neighbor_local = false, .compose_neighbor_local = true};
  }
  [[nodiscard]] std::string name() const override { return "anon-degree"; }
};

}  // namespace wb
