// Protocol interface (§2 of the paper).
//
// A protocol supplies the two per-node functions of the formal model,
//  - act: should this awake node become active, given the whiteboard?
//  - msg: the message an active node stores in its local memory,
// plus the output function evaluated on the final whiteboard, its declared
// model class, and its message-size bound f(n) (checked by the engine on
// every write).
//
// The engine enforces the class semantics mechanically:
//  - simultaneous classes: activate() must return true on the empty
//    whiteboard for every node (the engine verifies);
//  - asynchronous classes: compose() is called exactly once per node, at
//    activation time, and the result is frozen;
//  - synchronous classes: compose() is re-evaluated every round until the
//    adversary writes the node's current memory.
#pragma once

#include <memory>
#include <string>

#include "src/support/bitio.h"
#include "src/wb/model.h"
#include "src/wb/view.h"
#include "src/wb/whiteboard.h"

namespace wb {

/// A protocol's opt-in data-dependence contract for the engine's rounds
/// (see engine.h). The frontier round, which every non-journaling
/// EngineState runs, uses both flags; the journaling reference round uses
/// compose_neighbor_local. Both flags describe *data dependence*, not a
/// different semantics — the engine uses them to skip re-evaluations that
/// provably cannot change, and the result must stay bit-identical to a
/// round that claims nothing.
struct FrontierLocality {
  /// activate(view, board) is a pure function of (view, the subsequence of
  /// board messages authored by neighbors of view.id()). Since the board only
  /// grows, an awake node's activation verdict can then change only in a
  /// round after one of its neighbors wrote — everyone else keeps last
  /// round's (false) answer without being asked again.
  bool activate_neighbor_local = false;
  /// compose(view, board) is a pure function of (view, the subsequence of
  /// board messages authored by neighbors of view.id()). Synchronous classes
  /// then only need to recompose an active node when a neighbor wrote since
  /// its memory was last computed.
  bool compose_neighbor_local = false;
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// The model class this protocol is designed for.
  [[nodiscard]] virtual ModelClass model_class() const = 0;

  /// Maximum message size in bits for n-node inputs — the f(n) in
  /// MODEL[f(n)]. The engine fails any run that writes a longer message.
  [[nodiscard]] virtual std::size_t message_bit_limit(std::size_t n) const = 0;

  /// act: decision of an awake node to become active. Must be a pure
  /// function of (view, whiteboard).
  [[nodiscard]] virtual bool activate(const LocalView& view,
                                      const Whiteboard& board) const = 0;

  /// msg: message an active node stores in local memory, as a pure function
  /// of (view, whiteboard). See the class-semantics notes above for when the
  /// engine calls this.
  [[nodiscard]] virtual Bits compose(const LocalView& view,
                                     const Whiteboard& board) const = 0;

  /// Scratch-writer overload — the one the engine actually calls. `scratch`
  /// arrives empty; implementations append their bits and `return
  /// scratch.take()`, so a message that fits Bits' inline buffer costs no
  /// heap allocation (the writer's capacity persists across the whole run).
  /// The default forwards to the allocating overload above, letting protocol
  /// subclasses migrate incrementally; semantics must be identical.
  [[nodiscard]] virtual Bits compose(const LocalView& view,
                                     const Whiteboard& board,
                                     BitWriter& scratch) const {
    (void)scratch;
    return compose(view, board);
  }

  /// Which round shortcuts this protocol's functions admit. The default
  /// claims nothing, which makes both rounds safe (if slower) for every
  /// protocol; claiming a flag the functions do not honor
  /// breaks the bit-identical guarantee, so it is pinned by the equivalence
  /// suites.
  [[nodiscard]] virtual FrontierLocality frontier_locality() const {
    return {};
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// A protocol together with its typed output function out(W).
template <typename OutputT>
class ProtocolWithOutput : public Protocol {
 public:
  using Output = OutputT;

  /// Decode the final whiteboard into the problem's answer. Receives nothing
  /// but the whiteboard and n — the type system enforces the paper's "the
  /// output is computed from the final contents of the whiteboard".
  [[nodiscard]] virtual OutputT output(const Whiteboard& board,
                                       std::size_t n) const = 0;
};

/// Convenience base for SIMASYNC protocols: activation is unconditional and
/// the single message may depend only on local knowledge (the whiteboard is
/// still empty when every node composes).
template <typename OutputT>
class SimAsyncProtocol : public ProtocolWithOutput<OutputT> {
 public:
  [[nodiscard]] ModelClass model_class() const override {
    return ModelClass::kSimAsync;
  }
  [[nodiscard]] bool activate(const LocalView&, const Whiteboard&) const final {
    return true;
  }
  [[nodiscard]] Bits compose(const LocalView& view,
                             const Whiteboard& board) const final {
    WB_CHECK_MSG(board.empty(),
                 "SIMASYNC compose must only ever see the empty whiteboard");
    return compose_initial(view);
  }
  [[nodiscard]] Bits compose(const LocalView& view, const Whiteboard& board,
                             BitWriter& scratch) const final {
    WB_CHECK_MSG(board.empty(),
                 "SIMASYNC compose must only ever see the empty whiteboard");
    return compose_initial(view, scratch);
  }

  /// The one message of node `view.id()`, from local knowledge only.
  [[nodiscard]] virtual Bits compose_initial(const LocalView& view) const = 0;

  /// Scratch-writer variant; default forwards to the allocating one so
  /// subclasses migrate incrementally (mirrors Protocol::compose).
  [[nodiscard]] virtual Bits compose_initial(const LocalView& view,
                                             BitWriter& scratch) const {
    (void)scratch;
    return compose_initial(view);
  }
};

/// Convenience base for SIMSYNC protocols: activation unconditional, message
/// recomputed from the evolving whiteboard.
template <typename OutputT>
class SimSyncProtocol : public ProtocolWithOutput<OutputT> {
 public:
  [[nodiscard]] ModelClass model_class() const override {
    return ModelClass::kSimSync;
  }
  [[nodiscard]] bool activate(const LocalView&, const Whiteboard&) const final {
    return true;
  }
};

}  // namespace wb
