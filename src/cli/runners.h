// Protocol runner registry for wbsim: constructs a protocol from its spec,
// runs it on a graph under an adversary (or the whole standard battery, in
// parallel), validates the output against the centralized reference
// algorithms, and renders a one-screen report.
//
// All execution — single runs included — goes through the batch engine
// (src/wb/batch.h), so the CLI exercises the same code path the parallel
// sweeps use. The exhaustive and sharded entry points below drive the
// explorer (src/wb/exhaustive.h) and its distributed layer (src/wb/shard.h)
// with the same per-protocol validation callbacks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/wb/adversary.h"
#include "src/wb/batch.h"
#include "src/wb/faults.h"
#include "src/wb/shard.h"

namespace wb::cli {

struct RunReport {
  bool executed = false;   // run reached a terminal engine state
  bool correct = false;    // output validated against the reference
  std::string adversary;   // strategy the run was scheduled by
  std::string status;      // engine status string
  std::string summary;     // multi-line human-readable report
  /// Exhaustive runs with counterexample tracking: the smallest-prefix
  /// failing schedule as a space-separated write order ("" = none found or
  /// not requested).
  std::string counterexample;
  /// Numeric totals of exhaustive and fault sweeps (0/false elsewhere) —
  /// what the verdict-matrix generator consumes without re-parsing the
  /// human-readable summary.
  std::uint64_t executions = 0;
  std::uint64_t engine_failures = 0;
  std::uint64_t wrong_outputs = 0;
  std::uint64_t fault_worlds = 0;
  /// Statistical (adaptive-adversary) sweeps: sampled trials instead of an
  /// exhaustive visit set, with the verdict tally for Wilson intervals.
  bool statistical = false;
  std::uint64_t verdict_trials = 0;
  std::uint64_t verdict_failures = 0;
};

/// Run `protocol_spec` on `g` under `adversary`. Throws wb::DataError for
/// unknown protocol specs.
[[nodiscard]] RunReport run_protocol_spec(const std::string& protocol_spec,
                                          const Graph& g, Adversary& adversary);

/// Run `protocol_spec` on `g` under every strategy of the standard adversary
/// battery (seeded with `seed`), fanned out across the batch engine's thread
/// pool. Reports are in battery order and deterministic for any thread count.
[[nodiscard]] std::vector<RunReport> run_protocol_spec_battery(
    const std::string& protocol_spec, const Graph& g, std::uint64_t seed,
    const BatchOptions& opts = {});

struct ExhaustiveRunOptions {
  /// Sweep workers: 0 = one per hardware thread, 1 = the serial oracle.
  std::size_t threads = 0;
  std::uint64_t max_executions = 2'000'000;
  /// Track the smallest-prefix failing schedule (lexicographically smallest
  /// failing write order) and report it. Deterministic at any thread count:
  /// the serial sweep stops at its first failure — which DFS order makes the
  /// minimum — while parallel sweeps keep the running minimum over every
  /// failure they visit.
  bool counterexample = false;
  /// Hash-consed state memoization (wb::sweep_memoized): serial, fault-free,
  /// no counterexample tracking; the report's schedules/verdict lines are
  /// byte-identical to the unmemoized serial sweep's.
  bool memoize = false;
  /// Distinct-board accumulator (src/wb/distinct.h): exact sorted-run dedup
  /// (default) or a HyperLogLog estimate with flat memory.
  DistinctConfig distinct{};
  /// Failure model (src/wb/faults.h). Fault-free sweeps are byte-identical
  /// to the pre-fault runner; crash/corruption models sweep every fault
  /// world exhaustively; the adaptive model samples seeded trials and
  /// reports a statistical verdict with a Wilson confidence interval.
  FaultSpec faults{};
  /// Nonzero = sample this many seeded trials of the configured failure
  /// model instead of sweeping exhaustively (any fault kind, fault-free
  /// included). This is how the verdict matrix (src/cli/verdicts.h) falls
  /// back to a statistical verdict when a cell's schedule space exceeds the
  /// budget. Adaptive specs are always statistical and ignore this knob in
  /// favor of their own trial count.
  std::uint64_t statistical_trials = 0;
};

/// Exhaustively validate `protocol_spec` on `g`: visit *every* adversary
/// schedule (the paper's correctness quantifier), fanned out across the
/// shared worker pool, and validate each execution's output against the
/// reference algorithms. The report is deterministic at any thread count.
/// Throws wb::BudgetExceededError when the schedule space exceeds
/// opts.max_executions.
[[nodiscard]] RunReport run_protocol_spec_exhaustive(
    const std::string& protocol_spec, const Graph& g,
    const ExhaustiveRunOptions& opts);

/// Convenience overload matching the historical signature.
[[nodiscard]] RunReport run_protocol_spec_exhaustive(
    const std::string& protocol_spec, const Graph& g, std::size_t threads = 0,
    std::uint64_t max_executions = 2'000'000);

/// Plan a sharded exhaustive sweep: construct the protocol named by
/// `protocol_spec`, partition its schedule tree on `g`, and distribute the
/// subtree prefixes round-robin over `shard_count` self-describing specs
/// (serialize with wb::shard::serialize, run anywhere, merge with
/// merge_shard_results).
[[nodiscard]] std::vector<shard::ShardSpec> plan_protocol_spec_shards(
    const std::string& protocol_spec, const Graph& g, std::size_t shard_count,
    const shard::PlanOptions& opts = {});

/// Run one shard of a planned sweep: constructs the protocol from the spec
/// embedded in `spec` and validates every successful execution's output
/// against the reference algorithms (exactly the checks the exhaustive
/// runner applies, so merged tallies are bit-identical to its report).
[[nodiscard]] shard::ShardResult run_protocol_spec_shard(
    const shard::ShardSpec& spec, std::size_t threads = 0);

/// The "schedules ... / verdict ..." report lines shared by the exhaustive
/// runner and the shard-merge CLI — byte-identical formatting is what lets
/// CI diff a merged sharded sweep against the `exhaustive:1` oracle. The
/// exact-mode lines are unchanged since PR 4; an hll sweep marks its
/// distinct count as the estimate it is ("~N distinct final boards
/// (hll:P)"), identically in both the in-process and the merged report.
[[nodiscard]] std::string exhaustive_summary_lines(
    std::uint64_t executions, std::uint64_t engine_failures,
    std::uint64_t wrong_outputs, std::uint64_t distinct_boards,
    const DistinctConfig& distinct = {});

/// The "schedules ... sampled trials / verdict ..." lines of a statistical
/// sweep, shared the same way by the in-process and the merged report.
[[nodiscard]] std::string statistical_summary_lines(
    const VerdictAccumulator& verdict);

/// List of known protocol specs for --help.
[[nodiscard]] std::string protocol_spec_help();

}  // namespace wb::cli
