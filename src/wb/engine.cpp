#include "src/wb/engine.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

namespace wb {

EngineState::EngineState(const Graph& g, const Protocol& p, EngineOptions opts)
    : graph_(&g), protocol_(&p), opts_(opts), n_(g.node_count()),
      locality_(p.frontier_locality()) {
  WB_CHECK_MSG(n_ >= 1, "protocols run on graphs with at least one node");
  if (opts_.max_rounds == 0) opts_.max_rounds = 2 * n_ + 8;
  state_.assign(n_, NodeState::kAwake);
  memory_.assign(n_, Bits{});
  written_.assign((n_ + 63) / 64, 0);
  stats_.activation_round.assign(n_, 0);
  stats_.write_round.assign(n_, 0);
  // Exactly n messages can ever be written; reserving up front makes a whole
  // run (and every backtracked re-write) allocation-free on the board.
  board_.reserve(n_);
  write_order_.reserve(n_);
  candidates_.reserve(n_);
}

void EngineState::trace(TraceEvent::Kind kind, NodeId v) {
  if (opts_.record_trace) trace_.push_back(TraceEvent{round_, kind, v});
}

void EngineState::journal_state(NodeId v, NodeState old_state) {
  if (!journaling_) return;
  UndoRecord u;
  u.kind = UndoRecord::Kind::kStateChange;
  u.old_state = old_state;
  u.node = v;
  journal_.push_back(std::move(u));
}

void EngineState::journal_activation(NodeId v) {
  if (!journaling_) return;
  UndoRecord u;
  u.kind = UndoRecord::Kind::kActivation;
  u.node = v;
  journal_.push_back(std::move(u));
}

void EngineState::journal_memory(NodeId v) {
  if (!journaling_) return;
  UndoRecord u;
  u.kind = UndoRecord::Kind::kMemory;
  u.node = v;
  u.old_memory = std::move(memory_[v - 1]);
  journal_.push_back(std::move(u));
}

void EngineState::set_journaling(bool on) {
  // Only a virgin state may start journaling: checkpoints reach exactly as
  // far back as the journal, so enabling after any round would let rewind()
  // silently cross into unrecorded history.
  WB_CHECK_MSG(!on || (journal_.empty() && round_ == 0),
               "enable journaling before the first begin_round()");
  journaling_ = on;
  if (!on) journal_.clear();
}

EngineState::Checkpoint EngineState::checkpoint() const {
  WB_CHECK_MSG(journaling_, "checkpoint() requires journaling");
  WB_CHECK_MSG(!terminal(), "checkpoint() of a terminal state");
  Checkpoint cp;
  cp.round = round_;
  cp.journal_size = journal_.size();
  cp.writes = stats_.writes;
  cp.board_count = board_.message_count();
  cp.max_message_bits = stats_.max_message_bits;
  cp.total_bits = stats_.total_bits;
  cp.trace_size = trace_.size();
  cp.wrote_this_round = wrote_this_round_;
  return cp;
}

void EngineState::rewind(const Checkpoint& cp) {
  WB_CHECK_MSG(journaling_, "rewind() requires journaling");
  WB_CHECK_MSG(cp.journal_size <= journal_.size(),
               "rewind() past an already-rewound checkpoint");
  // Undo journaled mutations newest-first, so a node recomposed several
  // times ends at its memory from checkpoint time.
  while (journal_.size() > cp.journal_size) {
    UndoRecord& u = journal_.back();
    switch (u.kind) {
      case UndoRecord::Kind::kStateChange:
        state_[u.node - 1] = u.old_state;
        break;
      case UndoRecord::Kind::kActivation:
        stats_.activation_round[u.node - 1] = 0;
        break;
      case UndoRecord::Kind::kMemory:
        memory_[u.node - 1] = std::move(u.old_memory);
        break;
    }
    journal_.pop_back();
  }
  // The write log names exactly the nodes written since the checkpoint.
  while (write_order_.size() > cp.writes) {
    const NodeId v = write_order_.back();
    written_[(v - 1) / 64] &= ~(std::uint64_t{1} << ((v - 1) % 64));
    stats_.write_round[v - 1] = 0;
    write_order_.pop_back();
  }
  board_.truncate(cp.board_count);
  round_ = cp.round;
  stats_.rounds = cp.round;
  stats_.writes = cp.writes;
  stats_.max_message_bits = cp.max_message_bits;
  stats_.total_bits = cp.total_bits;
  trace_.resize(cp.trace_size);
  wrote_this_round_ = cp.wrote_this_round;
  status_.reset();
  error_.clear();
  candidates_.clear();
}

void EngineState::compose_into(NodeId v) {
  // Defensive reset (a no-op after a well-behaved take()): the compose
  // contract hands the protocol an *empty* writer.
  compose_scratch_.reset();
  Bits message;
  try {
    message = protocol_->compose(view_of(v), board_, compose_scratch_);
  } catch (const DataError& e) {
    // Fault firewall: under crash/corruption failure models the board can be
    // one the protocol never promised to decode. A robust decoder signals
    // that with DataError; turn it into a clean terminal status instead of
    // letting it abort the whole sweep.
    std::ostringstream os;
    os << "node " << v << " compose rejected the whiteboard: " << e.what();
    fail(RunStatus::kFault, os.str());
    return;
  }
  const std::size_t limit = protocol_->message_bit_limit(n_);
  if (message.size() > limit) {
    std::ostringstream os;
    os << "node " << v << " composed " << message.size()
       << " bits, exceeding the declared bound of " << limit << " bits";
    fail(RunStatus::kMessageOverflow, os.str());
    return;
  }
  journal_memory(v);
  memory_[v - 1] = std::move(message);
}

void EngineState::begin_round() {
  if (terminal()) return;
  if (round_ == 0) {
    // The round implementation is fixed here: set_journaling() is legal only
    // at round 0, so the choice holds for every later round. (A rewind to
    // round 0 restores a virgin state, where choosing again is harmless.)
    frontier_ = !journaling_;
    if (frontier_) {
      awake_ids_.resize(n_);
      std::iota(awake_ids_.begin(), awake_ids_.end(), NodeId{1});
    }
  }
  ++round_;
  wrote_this_round_ = false;
  stats_.rounds = round_;
  if (round_ > opts_.max_rounds) {
    fail(RunStatus::kProtocolError, "round limit exceeded without progress");
    return;
  }
  if (frontier_) {
    begin_round_frontier();
  } else {
    begin_round_reference();
  }
  if (terminal()) return;
  finish_round_bookkeeping();
}

void EngineState::begin_round_reference() {
  const bool sim = is_simultaneous(protocol_->model_class());
  const bool async = is_asynchronous(protocol_->model_class());

  // Phase 1: termination updates.
  for (NodeId v = 1; v <= n_; ++v) {
    if (state_[v - 1] == NodeState::kActive && written(v)) {
      journal_state(v, NodeState::kActive);
      state_[v - 1] = NodeState::kTerminated;
      trace(TraceEvent::Kind::kTerminate, v);
    }
  }

  // Phase 2: activations (+ compositions).
  for (NodeId v = 1; v <= n_; ++v) {
    if (state_[v - 1] != NodeState::kAwake) continue;
    const bool wants = activate_of(v);
    if (terminal()) return;
    if (sim && round_ == 1 && !wants) {
      std::ostringstream os;
      os << "protocol declares a simultaneous class but node " << v
         << " did not activate in round 1";
      fail(RunStatus::kProtocolError, os.str());
      return;
    }
    if (!wants) continue;
    journal_state(v, NodeState::kAwake);
    state_[v - 1] = NodeState::kActive;
    journal_activation(v);
    stats_.activation_round[v - 1] = round_;
    trace(TraceEvent::Kind::kActivate, v);
    if (async) {
      // Asynchronous classes: the message is created now and frozen.
      compose_into(v);
      if (terminal()) return;
    }
  }
  if (!async && locality_.compose_neighbor_local) {
    // Synchronous classes under a compose-locality claim: a memory can only
    // change if its node activated this round or a neighbor wrote last
    // round — every other memory was composed from a board that differs
    // from the current one only in non-neighbor messages. Ascending ID
    // order, as below, so a failing compose fails identically.
    const NodeId writer =
        !write_order_.empty() &&
                stats_.write_round[write_order_.back() - 1] + 1 == round_
            ? write_order_.back()
            : kNoNode;
    const auto nb = writer == kNoNode ? std::span<const NodeId>{}
                                      : graph_->neighbors(writer);
    std::size_t bi = 0;
    for (NodeId v = 1; v <= n_; ++v) {
      if (state_[v - 1] != NodeState::kActive || written(v)) continue;
      while (bi < nb.size() && nb[bi] < v) ++bi;
      if (stats_.activation_round[v - 1] == round_ ||
          (bi < nb.size() && nb[bi] == v)) {
        compose_into(v);
        if (terminal()) return;
      }
    }
  } else if (!async) {
    // Synchronous classes: every active, unwritten node recomputes its local
    // memory from the current whiteboard ("may change its mind").
    for (NodeId v = 1; v <= n_; ++v) {
      if (state_[v - 1] == NodeState::kActive && !written(v)) {
        compose_into(v);
        if (terminal()) return;
      }
    }
  }

  // Candidate set for the adversary.
  candidates_.clear();
  for (NodeId v = 1; v <= n_; ++v) {
    if (state_[v - 1] == NodeState::kActive && !written(v)) {
      candidates_.push_back(v);
    }
  }
}

void EngineState::begin_round_frontier() {
  const bool sim = is_simultaneous(protocol_->model_class());
  const bool async = is_asynchronous(protocol_->model_class());
  const NodeId writer = pending_writer_;
  pending_writer_ = kNoNode;

  // Phase 1: the only node that can newly be active+written is last round's
  // writer (write_node requires an active node, and every earlier writer
  // already terminated) — O(1) instead of the reference scan.
  if (writer != kNoNode && state_[writer - 1] == NodeState::kActive) {
    state_[writer - 1] = NodeState::kTerminated;
    trace(TraceEvent::Kind::kTerminate, writer);
  }

  // Phase 2: activations. Everyone is evaluated in round 1; afterwards, if
  // the protocol's activation is neighbor-local, only awake neighbors of the
  // writer can change their answer. Both iteration orders are ascending, so
  // activation/trace/compose order matches the reference engine exactly.
  newly_activated_.clear();
  const auto eval = [&](NodeId v) -> bool {
    const bool wants = activate_of(v);
    if (terminal()) return false;
    if (sim && round_ == 1 && !wants) {
      std::ostringstream os;
      os << "protocol declares a simultaneous class but node " << v
         << " did not activate in round 1";
      fail(RunStatus::kProtocolError, os.str());
      return false;
    }
    if (!wants) return true;
    state_[v - 1] = NodeState::kActive;
    stats_.activation_round[v - 1] = round_;
    trace(TraceEvent::Kind::kActivate, v);
    newly_activated_.push_back(v);
    if (async) {
      compose_into(v);
      if (terminal()) return false;
    }
    return true;
  };
  if (round_ == 1 || !locality_.activate_neighbor_local) {
    for (NodeId v : awake_ids_) {
      if (!eval(v)) return;
    }
  } else if (writer != kNoNode) {
    const auto nb = graph_->neighbors(writer);
    if (nb.size() <= awake_ids_.size()) {
      // Top-down: walk the writer's (sorted) neighbor list.
      for (NodeId w : nb) {
        if (state_[w - 1] == NodeState::kAwake && !eval(w)) return;
      }
    } else {
      // Bottom-up: the awake population is smaller than the writer's degree.
      for (NodeId v : awake_ids_) {
        if (graph_->has_edge(writer, v) && !eval(v)) return;
      }
    }
  }
  if (!newly_activated_.empty()) {
    awake_ids_.erase(std::remove_if(awake_ids_.begin(), awake_ids_.end(),
                                    [&](NodeId v) {
                                      return state_[v - 1] !=
                                             NodeState::kAwake;
                                    }),
                     awake_ids_.end());
    // Merge the (ascending) new actives into the sorted candidate list.
    const auto mid = static_cast<std::ptrdiff_t>(candidates_.size());
    candidates_.insert(candidates_.end(), newly_activated_.begin(),
                       newly_activated_.end());
    std::inplace_merge(candidates_.begin(), candidates_.begin() + mid,
                       candidates_.end());
  }

  if (!async) {
    if (!locality_.compose_neighbor_local) {
      // Recompose every active unwritten node, as the reference does.
      for (NodeId v : candidates_) {
        compose_into(v);
        if (terminal()) return;
      }
    } else if (writer != kNoNode &&
               graph_->degree(writer) > candidates_.size()) {
      // Bottom-up: scan candidates; recompose the fresh ones and the
      // writer's neighbors (the only memories that can change).
      for (NodeId v : candidates_) {
        if (std::binary_search(newly_activated_.begin(),
                               newly_activated_.end(), v) ||
            graph_->has_edge(writer, v)) {
          compose_into(v);
          if (terminal()) return;
        }
      }
    } else {
      // Top-down: merge-walk the new actives and the writer's candidate
      // neighbors in ascending ID order, skipping duplicates.
      const auto nb = writer == kNoNode ? std::span<const NodeId>{}
                                        : graph_->neighbors(writer);
      std::size_t ai = 0, bi = 0;
      while (true) {
        while (bi < nb.size() && (state_[nb[bi] - 1] != NodeState::kActive ||
                                  written(nb[bi]))) {
          ++bi;
        }
        NodeId v = kNoNode;
        if (ai < newly_activated_.size() &&
            (bi >= nb.size() || newly_activated_[ai] <= nb[bi])) {
          v = newly_activated_[ai];
          if (bi < nb.size() && nb[bi] == v) ++bi;  // present in both
          ++ai;
        } else if (bi < nb.size()) {
          v = nb[bi];
          ++bi;
        } else {
          break;
        }
        compose_into(v);
        if (terminal()) return;
      }
    }
  }
}

void EngineState::finish_round_bookkeeping() {
  if (candidates_.empty()) {
    if (stats_.writes == n_) {
      set_status(RunStatus::kSuccess);
    } else {
      // No node can write and — since the whiteboard can no longer change —
      // no awake node will ever activate: corrupted configuration.
      std::ostringstream os;
      os << "deadlock after " << stats_.writes << "/" << n_ << " writes";
      fail(RunStatus::kDeadlock, os.str());
    }
  }
}

void EngineState::write(std::size_t index) {
  WB_CHECK(!terminal());
  WB_CHECK_MSG(index < candidates_.size(), "adversary chose a non-candidate");
  const NodeId v = candidates_[index];
  write_node(v);
  // The frontier round maintains the candidate buffer incrementally
  // (write_node removed v); the reference round rebuilds it every round.
  if (!frontier_) candidates_.clear();
}

void EngineState::write_node(NodeId v) {
  WB_CHECK(!terminal());
  WB_CHECK_MSG(v >= 1 && v <= n_ && state_[v - 1] == NodeState::kActive &&
                   !written(v),
               "write_node(" << v << "): not an active unwritten node");
  WB_CHECK_MSG(!wrote_this_round_,
               "one adversarial write per round: begin_round() first");
  wrote_this_round_ = true;
  const Bits& message = memory_[v - 1];
  stats_.max_message_bits = std::max(stats_.max_message_bits, message.size());
  board_.append(message);
  stats_.total_bits = board_.total_bits();
  written_[(v - 1) / 64] |= std::uint64_t{1} << ((v - 1) % 64);
  stats_.write_round[v - 1] = round_;
  ++stats_.writes;
  write_order_.push_back(v);
  trace(TraceEvent::Kind::kWrite, v);
  if (frontier_) {
    pending_writer_ = v;
    const auto it =
        std::lower_bound(candidates_.begin(), candidates_.end(), v);
    if (it != candidates_.end() && *it == v) candidates_.erase(it);
  }
}

bool EngineState::activate_of(NodeId v) {
  try {
    return protocol_->activate(view_of(v), board_);
  } catch (const DataError& e) {
    std::ostringstream os;
    os << "node " << v << " activate rejected the whiteboard: " << e.what();
    fail(RunStatus::kFault, os.str());
    return false;
  }
}

void EngineState::fail(RunStatus status, std::string error) {
  status_ = status;
  error_ = std::move(error);
}

void EngineState::finish_into(ExecutionResult& out) const {
  WB_CHECK_MSG(terminal(), "finish() before the run reached a terminal state");
  out.status = *status_;
  out.board = board_;  // O(1): shares the immutable message prefix
  out.stats = stats_;
  out.write_order = write_order_;
  out.error = error_;
  out.trace = trace_;
}

ExecutionResult EngineState::finish() const& {
  ExecutionResult r;
  finish_into(r);
  return r;
}

ExecutionResult EngineState::finish() && {
  WB_CHECK_MSG(terminal(), "finish() before the run reached a terminal state");
  ExecutionResult r;
  r.status = *status_;
  r.board = std::move(board_);
  r.stats = std::move(stats_);
  r.write_order = std::move(write_order_);
  r.error = std::move(error_);
  r.trace = std::move(trace_);
  return r;
}

Hash128 EngineState::memo_key() const {
  Hasher128 h;
  const Hash128 content = board_.content_hash();
  h.update(content.lo);
  h.update(content.hi);
  // The written set, packed 64 nodes per word. Not derivable from the board
  // for protocols whose messages do not embed the writer's id.
  for (const std::uint64_t word : written_) h.update(word);
  return h.digest();
}

ExecutionResult run_protocol(const Graph& g, const Protocol& p, Adversary& adv,
                             EngineOptions opts) {
  adv.reset();
  EngineState s(g, p, opts);
  while (true) {
    s.begin_round();
    if (s.terminal()) return std::move(s).finish();
    const std::size_t pick =
        adv.choose(s.candidates(), s.board(), s.round());
    s.write(pick);
  }
}

ExecutionResult run_protocol(const Graph& g, const Protocol& p,
                             EngineOptions opts) {
  FirstAdversary adv;
  return run_protocol(g, p, adv, opts);
}

}  // namespace wb
