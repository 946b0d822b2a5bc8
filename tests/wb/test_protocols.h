// Miniature protocols used only by the engine/explorer tests: well-behaved,
// deliberately misbehaving, and class-violating specimens.
#pragma once

#include "src/protocols/codec.h"
#include "src/wb/protocol.h"

namespace wb::testing {

/// Minimal healthy SIMASYNC protocol: everyone writes its own ID.
class EchoIdProtocol final : public SimAsyncProtocol<std::size_t> {
 public:
  std::size_t message_bit_limit(std::size_t n) const override {
    return static_cast<std::size_t>(codec::id_bits(n));
  }
  Bits compose_initial(const LocalView& view) const override {
    BitWriter w;
    return compose_initial(view, w);
  }
  Bits compose_initial(const LocalView& view, BitWriter& w) const override {
    codec::write_id(w, view.id(), view.n());
    return w.take();
  }
  /// Output: number of messages (sanity only).
  std::size_t output(const Whiteboard& board, std::size_t) const override {
    return board.message_count();
  }
  std::string name() const override { return "echo-id"; }
};

/// Declares SIMSYNC but refuses to activate: a model-class violation the
/// engine must flag as a protocol error.
class LazySimSyncProtocol final : public ProtocolWithOutput<int> {
 public:
  ModelClass model_class() const override { return ModelClass::kSimSync; }
  std::size_t message_bit_limit(std::size_t) const override { return 8; }
  bool activate(const LocalView&, const Whiteboard&) const override {
    return false;  // violates "all nodes active after the first round"
  }
  Bits compose(const LocalView&, const Whiteboard&) const override {
    return Bits{};
  }
  int output(const Whiteboard&, std::size_t) const override { return 0; }
  std::string name() const override { return "lazy-simsync"; }
};

/// Writes more bits than its declared bound.
class OversizeProtocol final : public SimAsyncProtocol<int> {
 public:
  std::size_t message_bit_limit(std::size_t) const override { return 4; }
  Bits compose_initial(const LocalView&) const override {
    BitWriter w;
    w.write_uint(0, 16);
    return w.take();
  }
  int output(const Whiteboard&, std::size_t) const override { return 0; }
  std::string name() const override { return "oversize"; }
};

/// Free-activation protocol in which only node 1 ever activates: on graphs
/// with n ≥ 2 the run must end in a corrupted configuration (deadlock).
class OnlyFirstNodeProtocol final : public ProtocolWithOutput<int> {
 public:
  ModelClass model_class() const override { return ModelClass::kAsync; }
  std::size_t message_bit_limit(std::size_t n) const override {
    return static_cast<std::size_t>(codec::id_bits(n));
  }
  bool activate(const LocalView& view, const Whiteboard&) const override {
    return view.id() == 1;
  }
  Bits compose(const LocalView& view, const Whiteboard&) const override {
    BitWriter w;
    codec::write_id(w, view.id(), view.n());
    return w.take();
  }
  int output(const Whiteboard&, std::size_t) const override { return 0; }
  std::string name() const override { return "only-first"; }
};

/// SYNC protocol whose message is the current whiteboard size — exercises
/// per-round recomposition ("changing one's mind"): the written value must
/// equal the number of messages present just before the node's own write.
class BoardSizeProtocol final : public ProtocolWithOutput<int> {
 public:
  ModelClass model_class() const override { return ModelClass::kSimSync; }
  std::size_t message_bit_limit(std::size_t n) const override {
    return static_cast<std::size_t>(codec::count_bits(n));
  }
  bool activate(const LocalView&, const Whiteboard&) const override {
    return true;
  }
  Bits compose(const LocalView& view, const Whiteboard& board) const override {
    BitWriter w;
    return compose(view, board, w);
  }
  Bits compose(const LocalView& view, const Whiteboard& board,
               BitWriter& w) const override {
    codec::write_count(w, board.message_count(), view.n());
    return w.take();
  }
  /// Output: true (1) iff message t carries value t for all t.
  int output(const Whiteboard& board, std::size_t n) const override {
    for (std::size_t t = 0; t < board.message_count(); ++t) {
      BitReader r(board.message(t));
      if (codec::read_count(r, n) != t) return 0;
    }
    return 1;
  }
  std::string name() const override { return "board-size"; }
};

/// ASYNC variant of BoardSizeProtocol: everyone activates immediately, the
/// message is frozen at activation, so every node writes the activation-time
/// board size (0), not the write-time size.
class FrozenBoardSizeProtocol final : public ProtocolWithOutput<int> {
 public:
  ModelClass model_class() const override { return ModelClass::kSimAsync; }
  std::size_t message_bit_limit(std::size_t n) const override {
    return static_cast<std::size_t>(codec::count_bits(n));
  }
  bool activate(const LocalView&, const Whiteboard&) const override {
    return true;
  }
  Bits compose(const LocalView& view, const Whiteboard& board) const override {
    BitWriter w;
    codec::write_count(w, board.message_count(), view.n());
    return w.take();
  }
  /// Output: count of messages that carry 0.
  int output(const Whiteboard& board, std::size_t n) const override {
    int zeros = 0;
    for (const Bits& m : board.messages()) {
      BitReader r(m);
      if (codec::read_count(r, n) == 0) ++zeros;
    }
    return zeros;
  }
  std::string name() const override { return "frozen-board-size"; }
};

/// ASYNC rumor flood exercising the frontier engine's *activation* locality:
/// node 1 activates on the empty board; everyone else activates once a
/// neighbor's message (an echoed ID) is on the board. Both the activation
/// verdict and the (frozen) message depend only on neighbor-authored
/// messages, so the protocol honestly claims both locality flags.
class RumorProtocol final : public ProtocolWithOutput<int> {
 public:
  ModelClass model_class() const override { return ModelClass::kAsync; }
  std::size_t message_bit_limit(std::size_t n) const override {
    return static_cast<std::size_t>(codec::id_bits(n));
  }
  bool activate(const LocalView& view, const Whiteboard& board) const override {
    if (view.id() == 1) return true;
    for (const Bits& m : board.messages()) {
      BitReader r(m);
      if (view.has_neighbor(codec::read_id(r, view.n()))) return true;
    }
    return false;
  }
  Bits compose(const LocalView& view, const Whiteboard&) const override {
    BitWriter w;
    codec::write_id(w, view.id(), view.n());
    return w.take();
  }
  FrontierLocality frontier_locality() const override {
    return {.activate_neighbor_local = true, .compose_neighbor_local = true};
  }
  /// Output: number of messages (the rumor's reach).
  int output(const Whiteboard& board, std::size_t) const override {
    return static_cast<int>(board.message_count());
  }
  std::string name() const override { return "rumor"; }
};

/// SYNC cousin of RumorProtocol: same neighbor-triggered activation, but the
/// message is (own ID, #neighbor messages currently on the board) and is
/// recomposed every round — exercising the frontier engine's *recompose*
/// locality paths (top-down and bottom-up) together with local activation.
class GossipCountProtocol final : public ProtocolWithOutput<int> {
 public:
  ModelClass model_class() const override { return ModelClass::kSync; }
  std::size_t message_bit_limit(std::size_t n) const override {
    return static_cast<std::size_t>(codec::id_bits(n) + codec::count_bits(n));
  }
  bool activate(const LocalView& view, const Whiteboard& board) const override {
    if (view.id() == 1) return true;
    for (const Bits& m : board.messages()) {
      BitReader r(m);
      if (view.has_neighbor(codec::read_id(r, view.n()))) return true;
    }
    return false;
  }
  Bits compose(const LocalView& view, const Whiteboard& board) const override {
    std::size_t from_neighbors = 0;
    for (const Bits& m : board.messages()) {
      BitReader r(m);
      if (view.has_neighbor(codec::read_id(r, view.n()))) ++from_neighbors;
    }
    BitWriter w;
    codec::write_id(w, view.id(), view.n());
    codec::write_count(w, from_neighbors, view.n());
    return w.take();
  }
  FrontierLocality frontier_locality() const override {
    return {.activate_neighbor_local = true, .compose_neighbor_local = true};
  }
  /// Output: sum of the written neighbor counts.
  int output(const Whiteboard& board, std::size_t n) const override {
    int sum = 0;
    for (const Bits& m : board.messages()) {
      BitReader r(m);
      codec::read_id(r, n);
      sum += static_cast<int>(codec::read_count(r, n));
    }
    return sum;
  }
  std::string name() const override { return "gossip-count"; }
};

/// The claim-free oracle for locality claims: forwards every callback of
/// `inner` but claims no FrontierLocality, so both engine rounds recompose
/// every active unwritten node of a synchronous class every round. Running
/// a protocol with and without this adapter pins its claims to the
/// behaviour of the functions they describe.
class ClaimFreeProtocol final : public Protocol {
 public:
  explicit ClaimFreeProtocol(const Protocol& inner) : inner_(inner) {}
  ModelClass model_class() const override { return inner_.model_class(); }
  std::size_t message_bit_limit(std::size_t n) const override {
    return inner_.message_bit_limit(n);
  }
  bool activate(const LocalView& view, const Whiteboard& board) const override {
    return inner_.activate(view, board);
  }
  Bits compose(const LocalView& view, const Whiteboard& board) const override {
    return inner_.compose(view, board);
  }
  Bits compose(const LocalView& view, const Whiteboard& board,
               BitWriter& scratch) const override {
    return inner_.compose(view, board, scratch);
  }
  std::string name() const override { return inner_.name() + "+claim-free"; }

 private:
  const Protocol& inner_;
};

}  // namespace wb::testing
