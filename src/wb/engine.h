// Execution engine for whiteboard protocols (§2 of the paper).
//
// One engine round performs, in order:
//   1. termination updates — an active node whose message is on the
//      whiteboard becomes terminated;
//   2. activations — every awake node evaluates act(view, W); nodes that
//      activate compose their message immediately from the same W
//      (asynchronous classes freeze it; synchronous classes also recompose
//      the memories of all previously active nodes from the current W);
//   3. one adversarial write — the adversary picks an active node whose
//      message is not yet on the whiteboard and the engine appends it.
//
// This collapses the paper's "activation round" and the following "write
// round" into one step. The set of reachable whiteboard sequences is
// unchanged: in both formulations a node's message can appear at any point
// after its activation condition first holds, and the adversary ranges over
// exactly those interleavings (see DESIGN.md §4).
//
// The engine is also the referee: it verifies the declared model class
// (simultaneous classes must activate everyone in round one; asynchronous
// messages are frozen by construction) and fails any run whose message
// exceeds the protocol's declared f(n) bit bound.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/support/hash.h"
#include "src/wb/adversary.h"
#include "src/wb/protocol.h"

namespace wb {

enum class RunStatus {
  kSuccess,          // all n messages written (successful configuration)
  kDeadlock,         // corrupted configuration: stuck before n writes
  kMessageOverflow,  // a node composed more bits than message_bit_limit(n)
  kProtocolError,    // protocol violated its declared model class / no progress
  kFault,            // a protocol callback rejected the whiteboard (DataError)
                     // — a corrupted or crash-truncated board it cannot decode
};

[[nodiscard]] constexpr std::string_view status_name(RunStatus s) noexcept {
  switch (s) {
    case RunStatus::kSuccess: return "success";
    case RunStatus::kDeadlock: return "deadlock";
    case RunStatus::kMessageOverflow: return "message-overflow";
    case RunStatus::kProtocolError: return "protocol-error";
    case RunStatus::kFault: return "fault";
  }
  return "?";
}

struct TraceEvent {
  enum class Kind { kActivate, kWrite, kTerminate };
  std::size_t round = 0;
  Kind kind = Kind::kActivate;
  NodeId node = kNoNode;
};

struct RunStats {
  std::size_t rounds = 0;
  std::size_t writes = 0;
  std::size_t max_message_bits = 0;
  std::size_t total_bits = 0;
  /// Round at which each node activated (0 = never).
  std::vector<std::size_t> activation_round;
  /// Round at which each node's message was written (0 = never).
  std::vector<std::size_t> write_round;
};

struct ExecutionResult {
  RunStatus status = RunStatus::kProtocolError;
  Whiteboard board;
  RunStats stats;
  /// Engine-side diagnostic: who wrote each message. Not available to the
  /// protocol's output function.
  std::vector<NodeId> write_order;
  std::string error;
  std::vector<TraceEvent> trace;

  [[nodiscard]] bool ok() const noexcept {
    return status == RunStatus::kSuccess;
  }
};

struct EngineOptions {
  /// Safety valve; 0 = automatic (writes can't exceed n, so 2n+8 rounds).
  std::size_t max_rounds = 0;
  bool record_trace = false;
};

/// Stepwise engine state. Copyable (copies are O(n) — the board is shared
/// copy-on-write), and optionally *journaling*: with journaling enabled the
/// engine records an undo entry for every mutation, so the exhaustive
/// explorer can branch by checkpoint()/rewind() on one state instead of
/// copying it per branch. Typical use is through run_protocol below.
///
/// The round implementation is chosen once, at the first begin_round(), from
/// whether the state journals:
///  - journaling states run the *reference* round, which rescans all n nodes
///    every round and records an undo entry for each mutation. Under a
///    compose_neighbor_local claim it recomposes, in a synchronous class,
///    only the nodes activated this round and the active unwritten
///    neighbors of the previous round's writer — the memories the claim
///    allows to change — so the node state after every round is the one a
///    full recompose would give;
///  - every other state runs the *frontier* round: it tracks the awake and
///    active sets incrementally and, where the protocol's FrontierLocality
///    contract allows, only re-activates and recomposes nodes adjacent to
///    the last writer, switching between iterating the writer's neighbor
///    list (top-down) and scanning the tracked population (bottom-up) on
///    frontier density. rewind() restores neither set, which is why the
///    rewinding explorer keeps the reference round.
/// Both rounds produce bit-identical executions. Since both honor compose
/// claims, the claim-free oracle lives in the tests: tests/wb/frontier_test.cpp
/// and the ClaimedLocality suite of tests/wb/exhaustive_test.cpp run each
/// protocol inside an adapter that claims nothing (testing::ClaimFreeProtocol)
/// and require identical executions.
class EngineState {
 public:
  EngineState(const Graph& g, const Protocol& p, EngineOptions opts = {});

  /// Phases 1–2 of the round (terminations, activations, compositions).
  /// No-op if the run already reached a terminal status.
  void begin_round();

  /// Active nodes with unwritten messages, sorted by ID (adversary domain).
  [[nodiscard]] std::span<const NodeId> candidates() const noexcept {
    return candidates_;
  }

  /// Phase 3: write candidate `index`'s memory and finish the round.
  void write(std::size_t index);

  /// Phase 3, addressed by node ID: `v` must be active with an unwritten
  /// message. Unlike write(), leaves the candidate buffer untouched, so a
  /// backtracking caller can iterate its own copy of the candidates across
  /// rewinds.
  void write_node(NodeId v);

  /// Terminal when a status is decided (success/deadlock/overflow/error).
  [[nodiscard]] bool terminal() const noexcept { return status_.has_value(); }

  /// Snapshot the terminal state into an ExecutionResult. The rvalue
  /// overload moves the board/stats/trace out (use via std::move(s).finish()
  /// when the state is done); finish_into re-fills a caller-owned result,
  /// reusing its buffers — the explorer's per-execution path.
  [[nodiscard]] ExecutionResult finish() const&;
  [[nodiscard]] ExecutionResult finish() &&;
  void finish_into(ExecutionResult& out) const;

  [[nodiscard]] const Whiteboard& board() const noexcept { return board_; }
  [[nodiscard]] std::size_t round() const noexcept { return round_; }

  /// State-identity key for memoized exploration: a 128-bit hash of the
  /// board content and the written set. O(n/64): the board stores its
  /// content hash, and the written set is kept as packed words. In the
  /// fault-free reference engine these determine every other component at a
  /// branch point — activations are monotone functions of the board history
  /// (itself the prefix chain of the content), memories are frozen at
  /// activation (asynchronous) or recomposed from the current board
  /// (synchronous), and the round counter tracks the write count — so two
  /// non-terminal states with equal keys behave identically under every
  /// future schedule. begin_round() changes neither component, so the key
  /// taken just before a round equals the one at the branch point it
  /// reaches. Used by the memoizing exhaustive sweep.
  [[nodiscard]] Hash128 memo_key() const;

  // --- Backtracking API (the exhaustive explorer) ---

  /// A point in the execution to rewind to. Cheap value: scalar cursors into
  /// the undo journal, write log, and trace.
  struct Checkpoint {
    std::size_t round = 0;
    std::size_t journal_size = 0;
    std::size_t writes = 0;
    std::size_t board_count = 0;
    std::size_t max_message_bits = 0;
    std::size_t total_bits = 0;
    std::size_t trace_size = 0;
    bool wrote_this_round = false;
  };

  /// Start recording undo entries. Enable once, before the first
  /// begin_round(); checkpoints only reach back to mutations made while
  /// journaling was on. A state journaling at its first begin_round() runs
  /// the reference round for its whole life (see the class comment).
  void set_journaling(bool on);

  [[nodiscard]] Checkpoint checkpoint() const;

  /// Restore the exact engine state at `cp` (requires journaling; `cp` must
  /// be from this state and not rewound past already). Clears any terminal
  /// status reached since. The candidate buffer is left empty — callers
  /// branching over candidates keep their own copy.
  void rewind(const Checkpoint& cp);

 private:
  void begin_round_reference();
  void begin_round_frontier();
  void finish_round_bookkeeping();
  void fail(RunStatus status, std::string error);
  void set_status(RunStatus status) { status_ = status; }
  [[nodiscard]] LocalView view_of(NodeId v) const {
    return LocalView(v, graph_->neighbors(v), graph_->node_count());
  }
  [[nodiscard]] bool written(NodeId v) const noexcept {
    return (written_[(v - 1) / 64] >> ((v - 1) % 64)) & 1u;
  }
  void compose_into(NodeId v);
  /// activate() through the fault firewall (see compose_into): a DataError
  /// from the protocol becomes a kFault terminal status. Callers must check
  /// terminal() after; the returned verdict is false on fault.
  [[nodiscard]] bool activate_of(NodeId v);
  void trace(TraceEvent::Kind kind, NodeId v);

  /// One reversible mutation. kStateChange restores a node's lifecycle
  /// state, kActivation clears its activation round (set exactly once, from
  /// 0), kMemory restores its previous local memory.
  struct UndoRecord {
    enum class Kind : std::uint8_t { kStateChange, kActivation, kMemory };
    Kind kind = Kind::kStateChange;
    NodeState old_state = NodeState::kAwake;
    NodeId node = kNoNode;
    Bits old_memory;
  };
  void journal_state(NodeId v, NodeState old_state);
  void journal_activation(NodeId v);
  void journal_memory(NodeId v);

  const Graph* graph_;
  const Protocol* protocol_;
  EngineOptions opts_;
  std::size_t n_;
  std::size_t round_ = 0;
  /// The paper's model admits one adversarial write per round; write_node
  /// enforces it (write() inherited the guarantee from the candidate-buffer
  /// clear, write_node has no buffer to clear).
  bool wrote_this_round_ = false;

  /// Per-engine compose scratch, handed to Protocol::compose so steady-state
  /// composition performs no heap allocation (the writer keeps its buffer
  /// across take()s; inline-sized messages never touch the heap).
  BitWriter compose_scratch_;

  std::vector<NodeState> state_;
  std::vector<Bits> memory_;
  /// The written set, packed: node v is bit (v-1) % 64 of word (v-1) / 64.
  std::vector<std::uint64_t> written_;
  std::vector<NodeId> candidates_;
  Whiteboard board_;
  std::optional<RunStatus> status_;
  std::string error_;

  RunStats stats_;
  std::vector<NodeId> write_order_;
  std::vector<TraceEvent> trace_;

  bool journaling_ = false;
  std::vector<UndoRecord> journal_;

  // --- Frontier round (fixed at the first begin_round(): !journaling_) ---
  bool frontier_ = false;
  /// The protocol's locality contract, cached at construction.
  FrontierLocality locality_;
  /// Writer of the previous round, kNoNode if that round wrote nothing.
  NodeId pending_writer_ = kNoNode;
  /// Awake node IDs, sorted; activated nodes are removed as they leave.
  std::vector<NodeId> awake_ids_;
  /// Per-round scratch: IDs activated this round, ascending.
  std::vector<NodeId> newly_activated_;
};

/// Run `p` on `g` to completion under `adv`.
[[nodiscard]] ExecutionResult run_protocol(const Graph& g, const Protocol& p,
                                           Adversary& adv,
                                           EngineOptions opts = {});

/// Convenience: run under the natural first-fit adversary.
[[nodiscard]] ExecutionResult run_protocol(const Graph& g, const Protocol& p,
                                           EngineOptions opts = {});

}  // namespace wb
