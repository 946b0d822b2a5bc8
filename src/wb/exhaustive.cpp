#include "src/wb/exhaustive.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/support/thread_pool.h"
#include "src/wb/memo_table.h"

namespace wb {

namespace {

/// State shared by every subtree task of one sweep. The counter is the
/// single source of truth for both the returned total and the budget guard,
/// so each is thread-count independent; the stop flag is how an early exit,
/// a budget overrun, or a throwing visitor cancels sibling subtrees.
struct ExploreControl {
  std::uint64_t budget = 0;
  std::atomic<std::uint64_t> visited{0};
  std::atomic<bool> stop{false};
};

// Depth-first over adversary choices on ONE journaling EngineState: branches
// are taken by write_node() and undone by rewind(), never by copying the
// state. Per-frame candidate buffers and the scratch ExecutionResult are
// pooled, so a steady-state visit allocates nothing. In a parallel sweep
// each subtree task owns one Backtracker seeded by replaying the task's
// decision prefix.
template <typename Visitor>
class Backtracker {
 public:
  Backtracker(const Graph& g, const Protocol& p, const EngineOptions& eopts,
              ExploreControl& ctl, Visitor& visit)
      : state_(g, p, eopts), ctl_(&ctl), visit_(&visit) {
    state_.set_journaling(true);
  }

  /// Replay `prefix` (one adversary decision per round) and exhaust the
  /// subtree below it. The prefix must consist of decisions recorded from
  /// non-terminal rounds of this same (graph, protocol).
  void run(std::span<const NodeId> prefix) {
    for (const NodeId v : prefix) {
      state_.begin_round();
      WB_CHECK_MSG(!state_.terminal(),
                   "subtree prefix reached a terminal state");
      state_.write_node(v);
    }
    explore(0);
  }

 private:
  // Invariant: explore() returns with the state rewound to how it found it.
  void explore(std::size_t depth) {
    if (ctl_->stop.load(std::memory_order_relaxed)) return;
    const EngineState::Checkpoint pre_round = state_.checkpoint();
    state_.begin_round();
    if (state_.terminal()) {
      visit_terminal();
      state_.rewind(pre_round);
      return;
    }
    // The round's candidates, copied into this depth's pooled buffer:
    // write_node() does not consume the candidate list, and rewinds restore
    // the state the copies were taken from. Accessed by index and re-fetched
    // each iteration — deeper explore() calls can grow frames_ and move the
    // pooled vectors, so no reference across the recursion stays valid.
    if (frames_.size() <= depth) frames_.emplace_back();
    frames_[depth].assign(state_.candidates().begin(),
                          state_.candidates().end());
    const EngineState::Checkpoint pre_write = state_.checkpoint();
    for (std::size_t i = 0; i < frames_[depth].size(); ++i) {
      if (ctl_->stop.load(std::memory_order_relaxed)) break;
      state_.write_node(frames_[depth][i]);
      explore(depth + 1);
      state_.rewind(pre_write);
    }
    state_.rewind(pre_round);
  }

  void visit_terminal() {
    // Reserve this execution's slot in the shared count BEFORE visiting: the
    // sweep's return value is then exactly the number of visitor
    // invocations (no execution is counted without being visited, none is
    // visited without being counted), and whether the budget guard fires
    // depends only on the total, never on the thread count.
    const std::uint64_t slot =
        ctl_->visited.fetch_add(1, std::memory_order_relaxed);
    if (slot >= ctl_->budget) {
      ctl_->visited.fetch_sub(1, std::memory_order_relaxed);
      ctl_->stop.store(true, std::memory_order_relaxed);
      throw BudgetExceededError(ctl_->budget);
    }
    state_.finish_into(scratch_);
    bool keep_going = false;
    try {
      keep_going = (*visit_)(scratch_);
    } catch (...) {
      ctl_->stop.store(true, std::memory_order_relaxed);
      scratch_.board = Whiteboard();
      throw;
    }
    if (!keep_going) ctl_->stop.store(true, std::memory_order_release);
    // Release our share of the board storage so the engine is again its
    // sole owner and rewinds in place. (A visitor that kept a copy of the
    // result still owns a consistent snapshot — copy-on-write.)
    scratch_.board = Whiteboard();
  }

  EngineState state_;
  ExploreControl* ctl_;
  Visitor* visit_;
  ExecutionResult scratch_;
  std::vector<std::vector<NodeId>> frames_;
};

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

std::vector<PrefixTask> partition_for_threads(const Graph& g,
                                              const Protocol& p,
                                              const EngineOptions& eopts,
                                              std::size_t threads) {
  const std::size_t workers = resolve_threads(threads);
  if (workers <= 1) {
    return {PrefixTask{}};  // depth 0: the entire schedule tree, serially
  }
  // Several tasks per worker, so dynamic claiming load-balances subtrees of
  // uneven size.
  return partition_executions(g, p, eopts, workers * 4);
}

std::vector<PrefixTask> partition_executions(const Graph& g, const Protocol& p,
                                             const EngineOptions& eopts,
                                             std::size_t target_tasks) {
  std::vector<PrefixTask> tasks;
  EngineState s(g, p, eopts);
  s.set_journaling(true);
  s.begin_round();
  if (s.terminal()) {
    // A single execution; the depth-0 task keeps the tiling invariant.
    tasks.push_back(PrefixTask{});
    return tasks;
  }
  const std::vector<NodeId> level1(s.candidates().begin(),
                                   s.candidates().end());
  if (level1.size() >= target_tasks) {
    for (const NodeId v : level1) {
      tasks.push_back(PrefixTask{{v, kNoNode}, 1});
    }
    return tasks;
  }
  const EngineState::Checkpoint root = s.checkpoint();
  for (const NodeId v : level1) {
    s.write_node(v);
    s.begin_round();
    if (s.terminal()) {
      tasks.push_back(PrefixTask{{v, kNoNode}, 1});
    } else {
      for (const NodeId u : s.candidates()) {
        tasks.push_back(PrefixTask{{v, u}, 2});
      }
    }
    s.rewind(root);
  }
  return tasks;
}

std::uint64_t for_each_execution(
    const Graph& g, const Protocol& p,
    const std::function<bool(const ExecutionResult&)>& visit,
    const ExhaustiveOptions& opts) {
  return for_each_execution_under(
      g, p, partition_for_threads(g, p, opts.engine, opts.threads),
      [&visit](const ExecutionResult& r, std::size_t) { return visit(r); },
      opts);
}

std::uint64_t for_each_execution_under(
    const Graph& g, const Protocol& p, std::span<const PrefixTask> tasks,
    const std::function<bool(const ExecutionResult&, std::size_t)>& visit,
    const ExhaustiveOptions& opts) {
  // visit(result, t) runs concurrently only for *different* task indices (a
  // single task is always processed by one worker). The visited set, the
  // shared count, and whether the budget guard fires are identical for any
  // thread count; only the inter-task visit order varies.
  ExploreControl ctl;
  ctl.budget = opts.max_executions;
  const auto sweep_task = [&](std::size_t t) {
    if (ctl.stop.load(std::memory_order_relaxed)) return;
    auto task_visit = [&visit, t](const ExecutionResult& r) {
      return visit(r, t);
    };
    Backtracker<decltype(task_visit)> bt(g, p, opts.engine, ctl, task_visit);
    bt.run(tasks[t].prefix());
  };
  const std::size_t threads = resolve_threads(opts.threads);
  if (threads > 1 && tasks.size() > 1) {
    ThreadPool::shared().parallel_for(tasks.size(), sweep_task, threads);
  } else {
    for (std::size_t t = 0; t < tasks.size(); ++t) sweep_task(t);
  }
  return ctl.visited.load(std::memory_order_relaxed);
}

MemoizedTotals sweep_memoized(
    const Graph& g, const Protocol& p,
    const std::function<bool(const ExecutionResult&)>& judge,
    const ExhaustiveOptions& opts) {
  WB_REQUIRE_MSG(opts.threads == 1, "memoized sweeps are serial");

  MemoTable memo;
  MemoizedTotals totals;
  std::unique_ptr<DistinctAccumulator> distinct =
      make_distinct_accumulator(opts.distinct);
  std::uint64_t charged = 0;  // executions accounted so far — the budget
                              // counter the unmemoized sweep would hold at
                              // the same point of its identical visit order
  const auto charge = [&](std::uint64_t executions) {
    if (executions > opts.max_executions - charged) {
      throw BudgetExceededError(opts.max_executions);
    }
    charged += executions;
  };

  EngineState state(g, p, opts.engine);
  state.set_journaling(true);
  ExecutionResult scratch;
  // Per-depth pooled candidate buffers, as in Backtracker::explore.
  std::vector<std::vector<NodeId>> frames;

  // Invariant (as in Backtracker::explore): returns with the state rewound
  // to how it found it, and returns the subtree's totals.
  const auto explore = [&](const auto& self, std::size_t depth) -> MemoEntry {
    // begin_round() changes neither the board nor the written set, so the
    // key is known before the round runs, and a state the table holds
    // needs no round at all: an equal key means the round would reach the
    // same non-terminal branch point the entry was recorded at.
    const Hash128 key = state.memo_key();
    if (MemoEntry hit; memo.find(key, hit)) {
      // The whole subtree was explored from an identical state: its
      // terminals, in the same relative order, contribute the same totals —
      // and its distinct boards are already in the accumulator (set-union
      // and register-max are idempotent, so skipping the re-inserts leaves
      // exact and hll counts alike unchanged).
      ++totals.memo_hits;
      charge(hit.executions);
      return hit;
    }
    const EngineState::Checkpoint pre_round = state.checkpoint();
    state.begin_round();
    if (state.terminal()) {
      charge(1);
      ++totals.terminals_visited;
      state.finish_into(scratch);
      MemoEntry leaf{1, 0, 0};
      if (!scratch.ok()) {
        leaf.engine_failures = 1;
      } else {
        try {
          if (!judge(scratch)) leaf.wrong_outputs = 1;
        } catch (const DataError&) {
          // A decoder rejecting the final board is an engine failure, as
          // in the enumerator's fault classifier, not the end of the sweep.
          leaf.engine_failures = 1;
        }
      }
      distinct->insert(scratch.board.content_hash());
      // Release the snapshot's share of the board storage, so the engine
      // is again its sole owner and rewinds and re-appends in place.
      scratch.board = Whiteboard();
      state.rewind(pre_round);
      return leaf;
    }
    ++totals.states_explored;
    MemoEntry sum;
    // Indexed and re-fetched each iteration: deeper calls may grow `frames`
    // and move the pooled vectors.
    if (frames.size() <= depth) frames.emplace_back();
    frames[depth].assign(state.candidates().begin(), state.candidates().end());
    const EngineState::Checkpoint pre_write = state.checkpoint();
    for (std::size_t i = 0; i < frames[depth].size(); ++i) {
      state.write_node(frames[depth][i]);
      const MemoEntry sub = self(self, depth + 1);
      sum.executions += sub.executions;
      sum.engine_failures += sub.engine_failures;
      sum.wrong_outputs += sub.wrong_outputs;
      state.rewind(pre_write);
    }
    memo.insert(key, sum);
    state.rewind(pre_round);
    return sum;
  };

  const MemoEntry root = explore(explore, 0);
  totals.executions = root.executions;
  totals.engine_failures = root.engine_failures;
  totals.wrong_outputs = root.wrong_outputs;
  totals.distinct = distinct->estimate();
  return totals;
}

}  // namespace wb
