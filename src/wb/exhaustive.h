// Exhaustive adversary: explore every schedule the adversary can force.
//
// A protocol solves a problem only if every execution (every sequence of
// adversarial writer choices) is successful and yields a correct output
// (§2). For small n this is checkable by brute force: the explorer branches
// on each adversary decision and visits every maximal execution. It
// backtracks one journaling EngineState (checkpoint/rewind) instead of
// copying the state at every branch, so a steady-state visit performs no
// heap allocation; tests/wb/exhaustive_test.cpp pins its visit sequence
// against a reference copy-per-branch DFS.
//
// Parallel exploration (ExhaustiveOptions::threads != 1): the schedule tree
// is partitioned at its top one or two decision levels into independent
// subtree tasks — each task is a decision prefix; a worker replays the
// prefix on its own journaling EngineState and exhausts the subtree below —
// and the tasks fan out over the shared worker pool
// (src/support/thread_pool.h). The partition depends only on (graph,
// protocol), never on the thread count, so the set of executions visited and
// the returned total are bit-identical at any thread count; only the
// inter-task visit order varies. threads == 1 is the serial reference path
// the tests oracle against.
//
// for_each_execution_under is the one explorer loop: it sweeps any list
// of subtree tasks, so a whole sweep, one shard of it (src/wb/shard.h, run
// in another process or on another host and merged afterwards), and each
// fault world of a fault sweep all run the same loop. The tallying layer
// above it — verdicts, distinct boards, the SweepTotals every sweep returns
// — is sweep_fault_tasks in src/wb/faults.h, where all_executions_ok and
// count_distinct_final_boards live as thin wrappers.
//
// This is the strongest evidence our simulator can produce for the "yes"
// cells of Table 2, and the machinery behind the minimax searches in the
// benches.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/support/hash.h"
#include "src/wb/distinct.h"
#include "src/wb/engine.h"

namespace wb {

struct ExhaustiveOptions {
  /// Upper bound on executions to visit (the explorer throws
  /// BudgetExceededError when the bound would be exceeded — a guard against
  /// accidental n! blowups). Enforced by a shared counter in parallel runs,
  /// so whether a sweep throws is thread-count independent.
  std::uint64_t max_executions = 2'000'000;
  /// Subtree-sweep workers: 1 (default) = the serial reference path; 0 = one
  /// worker per hardware thread; k = at most k workers. With any value other
  /// than 1 the visitor may be invoked concurrently from pool workers and
  /// must be thread-safe (the aggregators of src/wb/faults.h already are).
  std::size_t threads = 1;
  /// Distinct-board accumulator of the sweeps built on this explorer
  /// (src/wb/faults.h): exact sorted-run dedup, or a HyperLogLog sketch
  /// whose memory is flat in the cardinality. See src/wb/distinct.h.
  DistinctConfig distinct{};
  /// Read by no sweep: memoization is selected by calling sweep_memoized.
  /// Kept only because perfbench/round.cpp still sets it; delete both
  /// together.
  bool memoize = false;
  EngineOptions engine;
};

/// Thrown when a sweep would visit more than max_executions executions.
/// A LogicError subclass so existing "guard against blowups" handling keeps
/// working; the distributed sharding layer catches the precise type to turn
/// a worker-local overrun into a deterministic ShardResult flag.
class BudgetExceededError : public LogicError {
 public:
  explicit BudgetExceededError(std::uint64_t max_executions)
      : LogicError("exhaustive exploration budget exceeded (max_executions = " +
                   std::to_string(max_executions) + ")"),
        max_executions_(max_executions) {}
  [[nodiscard]] std::uint64_t max_executions() const noexcept {
    return max_executions_;
  }

 private:
  std::uint64_t max_executions_;
};

/// One independent subtree of the schedule tree, identified by the adversary
/// decisions leading to it (at most the top two levels). depth == 0 is the
/// whole tree.
struct PrefixTask {
  std::array<NodeId, 2> decision{kNoNode, kNoNode};
  std::size_t depth = 0;
  [[nodiscard]] std::span<const NodeId> prefix() const {
    return {decision.data(), depth};
  }
  friend bool operator==(const PrefixTask&, const PrefixTask&) = default;
};

/// Split the top of the schedule tree into independent subtree tasks: one
/// per level-1 branch when the root fan-out already feeds `target_tasks`
/// workers, else one per (level-1, level-2) decision pair. The partition
/// depends only on (graph, protocol, target_tasks) — never on scheduling —
/// and its subtrees' leaves tile the full execution set exactly once; this
/// is what makes both thread- and process-level fan-out mergeable back into
/// bit-identical totals. A root round that is already terminal (a single
/// execution) yields one depth-0 task, so the tiling property holds
/// unconditionally.
[[nodiscard]] std::vector<PrefixTask> partition_executions(
    const Graph& g, const Protocol& p, const EngineOptions& eopts,
    std::size_t target_tasks);

/// The partition a `threads`-worker sweep uses (0 = one worker per hardware
/// thread, 1 = the single whole-tree task of the serial path; otherwise
/// several tasks per worker so dynamic claiming load-balances subtrees of
/// uneven size). This is the one place the load-balancing policy lives —
/// for_each_execution and sweep_faulty_executions (src/wb/faults.h, the CLI
/// exhaustive runner's sweep) both partition through it.
[[nodiscard]] std::vector<PrefixTask> partition_for_threads(
    const Graph& g, const Protocol& p, const EngineOptions& eopts,
    std::size_t threads);

/// Visit every maximal execution of `p` on `g`: for_each_execution_under
/// over partition_for_threads(g, p, opts.engine, opts.threads). The visitor
/// may return false to stop early (e.g. after the first counterexample); the
/// current subtree unwinds and — in parallel runs — sibling subtree tasks
/// are cancelled at their next poll.
/// Returns the number of executions visited, which is exactly the number of
/// visitor invocations: bit-identical at every thread count for a full
/// sweep; under an early stop it is exact but (with threads != 1)
/// scheduling-dependent, since concurrent workers may complete visits
/// already in flight.
std::uint64_t for_each_execution(
    const Graph& g, const Protocol& p,
    const std::function<bool(const ExecutionResult&)>& visit,
    const ExhaustiveOptions& opts = {});

/// The one explorer loop: visit every maximal execution inside the
/// subtrees named by `tasks` (a whole sweep's partition, or one shard of
/// it), serially or fanned out over opts.threads pool workers. The visitor
/// receives the index of the task the execution belongs to, so per-task
/// aggregation needs no locking (a single task is always processed by one
/// worker). Budget, early stop, and the returned count behave as in
/// for_each_execution; with tasks covering the whole tree the visited set
/// and total are bit-identical at any thread count.
std::uint64_t for_each_execution_under(
    const Graph& g, const Protocol& p, std::span<const PrefixTask> tasks,
    const std::function<bool(const ExecutionResult&, std::size_t)>& visit,
    const ExhaustiveOptions& opts = {});

/// Aggregates of one memoized sweep. The first four are pinned bit-identical
/// to the unmemoized serial sweep's accounting (same executions, same
/// verdict arithmetic, same distinct count — exact or hll); the rest report
/// how much the memo collapsed the schedule tree.
struct MemoizedTotals {
  std::uint64_t executions = 0;
  std::uint64_t engine_failures = 0;  // non-success, or judge threw DataError
  std::uint64_t wrong_outputs = 0;    // successful but judge(result) == false
  std::uint64_t distinct = 0;         // distinct final boards, per opts.distinct
  std::uint64_t states_explored = 0;  // distinct non-terminal states expanded
  std::uint64_t memo_hits = 0;        // branches answered from the table
  std::uint64_t terminals_visited = 0;  // judge invocations (≤ executions)
};

/// Exhaustive sweep with hash-consed state memoization: a depth-first walk
/// on one journaling EngineState that keys every branch point by
/// EngineState::memo_key() and reuses the (executions, failures, wrong)
/// subtree totals of states it has seen before. The key is looked up before
/// the round runs, so a hit costs no engine round; the table is the flat
/// MemoTable of src/wb/memo_table.h. Protocols whose messages
/// embed the writer's id never collapse (every board is order-unique — the
/// memo is pure overhead); anonymous-message protocols (anon-degree)
/// collapse factorially. Honors opts.max_executions with the same
/// observable as the unmemoized sweep (throws BudgetExceededError iff it
/// would); requires opts.threads == 1 and fault-free engine options.
/// `judge` is invoked once per distinct terminal state, not per execution;
/// a DataError it throws (a decoder rejecting the board) counts the
/// execution as an engine failure, as the enumerator's classifier does.
[[nodiscard]] MemoizedTotals sweep_memoized(
    const Graph& g, const Protocol& p,
    const std::function<bool(const ExecutionResult&)>& judge,
    const ExhaustiveOptions& opts = {});

}  // namespace wb
