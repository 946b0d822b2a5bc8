// Distributed sharding for the exhaustive explorer.
//
// The PR 3 subtree-prefix partition (src/wb/exhaustive.h) is shard-friendly:
// the top of the schedule tree is split into PrefixTask subtrees whose
// leaves tile the full execution set exactly once, and every aggregate the
// sweep produces (visit count, failure tallies, distinct-board accumulators)
// merges order-obliviously. This layer serializes that partition so the
// subtrees can be swept by different *processes* — on one machine or a
// fleet — and merged back into totals bit-identical to the single-process
// `threads=1` oracle:
//
//   plan:  partition_fault_tasks → K ShardSpec files (round-robin tasks)
//          + one ShardManifest (plan fingerprint + per-spec document hashes,
//          so a fleet controller can track completion and re-issue lost
//          shards)
//   run:   one ShardSpec → a ShardResult file (per-process, ThreadPool
//          parallel inside)
//   merge: K ShardResult files → MergedResult == the serial sweep's totals
//
// File formats are versioned, self-describing text ("wbshard-spec v2" /
// "wbshard-result v2" / "wbshard-manifest v2"). Parsers reject malformed,
// truncated, or version-skewed input — v1 documents included — with a
// wb::DataError diagnostic, never undefined behavior, and
// serialize→parse→serialize is byte-identical (tests/wb/shard_test.cpp pins
// golden files under tests/wb/data/).
//
// Determinism contract (the reason merge order and shard→host assignment
// never matter):
//  - the task list is recorded in the specs, so equivalence never depends
//    on re-running the partition;
//  - counts are sums over disjoint subtree sets; distinct boards go through
//    a DistinctAccumulator (src/wb/distinct.h) whose merge — sorted-run set
//    union for exact, register-wise max for hll — is order-oblivious, so
//    the merged count (or estimate) is bit-identical for any grouping;
//  - the execution budget is global: a shard whose own sweep exceeds
//    max_executions records `budget_exceeded` (deterministically — its
//    tallies are cleared), and the merge throws BudgetExceededError exactly
//    when the combined count exceeds the budget, i.e. exactly when the
//    serial oracle would have thrown;
//  - results carry a fingerprint of (protocol, graph, budget, engine
//    options, distinct-accumulator config, shard count, full partition), so
//    merging results from different plans — including two different
//    partitions of the same instance, or an exact and an hll plan of the
//    same instance — is rejected loudly; the merge additionally checks the
//    accumulator kind field itself, so even hand-edited artifacts cannot
//    mix an estimate into an exact count.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/support/hash.h"
#include "src/support/hll.h"
#include "src/wb/distinct.h"
#include "src/wb/exhaustive.h"
#include "src/wb/faults.h"

namespace wb::shard {

/// Bumped on any change to the text formats below; parsers read exactly
/// this version. v2 added the distinct accumulator field (spec + result),
/// the hll register block, and the manifest format. The failure-model
/// fields (`faults`, `fprefix`, `verdict`) are *optional* v2
/// lines: fault-free documents serialize without them byte-for-byte as
/// before, and v2 documents without a fault field parse as fault-free.
inline constexpr int kFormatVersion = 2;

/// One shard of a planned exhaustive sweep: the instance (graph + opaque
/// protocol spec string + budget + engine options + distinct-accumulator
/// config), which shard of how many this is, and the exact (world, prefix)
/// tasks this shard must sweep.
struct ShardSpec {
  /// Protocol factory string (src/cli/spec.h grammar). Opaque at this layer:
  /// carried, serialized, and fingerprinted, never parsed here.
  std::string protocol_spec;
  Graph graph{0};
  std::uint64_t max_executions = 2'000'000;
  /// Engine configuration the sweep must run under (serialized, so a worker
  /// process reproduces the oracle's engine behavior exactly).
  EngineOptions engine{};
  /// Distinct-board accumulator every shard of this plan must use.
  DistinctConfig distinct{};
  /// Fingerprint of the whole plan — instance, budget, engine options,
  /// distinct config, shard count, and the *complete* partition across all
  /// shards (not just this shard's slice). Stamped by plan_shards; results
  /// carry it forward, and merge refuses to combine results whose
  /// fingerprints differ, so shards of two different partitions of the same
  /// instance can never be mixed into silently wrong totals.
  Hash128 plan{};
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Failure model every shard of this plan runs under (default: fault-free,
  /// which serializes without a `faults` line — fault-free documents are
  /// byte-identical to pre-fault v2 files). Covered by the plan fingerprint,
  /// so artifacts swept under different fault specs refuse to merge.
  FaultSpec faults{};
  /// The (world, prefix) subtrees this shard must sweep — the one task list
  /// of every exhaustive plan. A fault-free plan has world 0 only and
  /// serializes its tasks as `prefix` lines; crash/corruption plans
  /// serialize them as `fprefix` lines. Adaptive plans carry none — trials
  /// are split by index stride across shards.
  std::vector<FaultTask> tasks;
};

/// What one shard's sweep produced. All fields are bit-identical for any
/// worker thread count. Exactly one distinct-board payload is populated,
/// matching `distinct.kind`: `board_hashes` (sorted and unique, ready for
/// order-oblivious set union) in exact mode, `hll` (register-wise
/// max-mergeable sketch) in hll mode.
struct ShardResult {
  /// The spec's plan fingerprint, copied forward; merge refuses to combine
  /// results with different plans.
  Hash128 plan{};
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  std::uint64_t max_executions = 0;
  std::uint64_t executions = 0;
  std::uint64_t engine_failures = 0;
  std::uint64_t wrong_outputs = 0;
  /// This shard alone exceeded the global budget. Its tallies and distinct
  /// payload are cleared (executions = max_executions), so the result file
  /// is deterministic; merge_shard_results turns the flag into the same
  /// BudgetExceededError the serial oracle throws.
  bool budget_exceeded = false;
  /// Which accumulator produced the distinct payload (copied from the spec;
  /// merge refuses kind mismatches even before the fingerprint check).
  DistinctConfig distinct{};
  std::vector<Hash128> board_hashes;  // exact mode: sorted, unique
  std::optional<HyperLogLog> hll;     // hll mode: the shard's sketch
  /// Failure model the shard ran under (copied from the spec; merge refuses
  /// fault-spec mismatches). Fault-free results serialize without it.
  FaultSpec faults{};
  /// Statistical verdict tally — populated (and serialized as a `verdict`
  /// line) iff faults.kind == kAdaptive. Merges by summation: shards split
  /// the trial index space by stride, so the union over shards is exactly
  /// the single-stream trial set.
  std::uint64_t verdict_trials = 0;
  std::uint64_t verdict_failures = 0;
};

/// The merged totals of a complete result set — field-for-field what the
/// single-process exhaustive sweep reports. `distinct_boards` is exact or a
/// HyperLogLog estimate according to `distinct` (the plan's config).
struct MergedResult {
  std::uint32_t shard_count = 0;
  std::uint64_t executions = 0;
  std::uint64_t engine_failures = 0;
  std::uint64_t wrong_outputs = 0;
  std::uint64_t distinct_boards = 0;
  DistinctConfig distinct{};
  /// Failure model of the plan, and (for adaptive plans) the summed
  /// statistical verdict — feed into a VerdictAccumulator for the rate and
  /// Wilson interval, bit-identical to the single-stream sweep.
  FaultSpec faults{};
  std::uint64_t verdict_trials = 0;
  std::uint64_t verdict_failures = 0;
};

struct PlanOptions {
  std::uint64_t max_executions = 2'000'000;
  /// Partition granularity: aim for at least this many prefix tasks per
  /// shard, so in-worker ThreadPool sweeps load-balance. The resulting
  /// prefixes are recorded verbatim in the specs — merge equivalence never
  /// depends on reproducing the partition.
  std::size_t tasks_per_shard = 4;
  /// Distinct-board accumulator for the whole plan (fingerprinted, so
  /// exact and hll artifacts of one instance can never cross-merge).
  DistinctConfig distinct{};
  EngineOptions engine;
  /// Failure model for the whole plan (fingerprinted). Crash/corruption
  /// plans fold the fault worlds into the partition; adaptive plans split
  /// the trial index space by stride across shards.
  FaultSpec faults{};
};

/// Partition every fault world's schedule tree through partition_fault_tasks
/// (a fault-free plan is world 0 alone) and distribute the tasks
/// round-robin over `shard_count` specs, each stamped with the plan
/// fingerprint. Deterministic: depends only on (g, p, shard_count, opts).
/// Shards may receive no tasks (more shards than subtrees); their sweeps
/// report zero executions and merge harmlessly.
[[nodiscard]] std::vector<ShardSpec> plan_shards(const Graph& g,
                                                 const Protocol& p,
                                                 const std::string& protocol_spec,
                                                 std::size_t shard_count,
                                                 const PlanOptions& opts = {});

/// Completion-tracking companion of a plan: the plan fingerprint, the shard
/// count, the distinct config, and the content hash of every spec document,
/// in shard order. A fleet controller holding only the manifest can tell
/// which shard results are present, missing, or foreign (wbsim
/// shard-status), and re-issue a lost shard's spec on another host.
struct ShardManifest {
  Hash128 plan{};
  std::uint32_t shard_count = 1;
  std::uint64_t max_executions = 0;
  DistinctConfig distinct{};
  /// Failure model of the plan (fault-free manifests serialize without it).
  FaultSpec faults{};
  std::vector<Hash128> spec_hashes;  // hash_document of each serialized spec
};

/// Content hash of a serialized document (what the manifest records per
/// spec file — re-hash a file to verify it is the planned one).
[[nodiscard]] Hash128 hash_document(const std::string& text);

/// Build the manifest of a complete plan (the full, ordered spec list that
/// plan_shards returned). Throws wb::DataError when the list is not exactly
/// one spec per shard of one plan, in index order.
[[nodiscard]] ShardManifest make_manifest(std::span<const ShardSpec> specs);

/// Canonical text forms. serialize(parse_*(text)) == text for any text the
/// serializers produced (golden-pinned).
[[nodiscard]] std::string serialize(const ShardSpec& spec);
[[nodiscard]] std::string serialize(const ShardResult& result);
[[nodiscard]] std::string serialize(const ShardManifest& manifest);

/// Parsers throw wb::DataError with a line-numbered diagnostic on malformed,
/// truncated, or version-skewed input; every version but kFormatVersion is
/// "unsupported format version".
[[nodiscard]] ShardSpec parse_shard_spec(const std::string& text);
[[nodiscard]] ShardResult parse_shard_result(const std::string& text);
[[nodiscard]] ShardManifest parse_shard_manifest(const std::string& text);

/// Sweep one shard (`threads` as in ExhaustiveOptions: 0 = one worker per
/// hardware thread, 1 = serial). `p` must be the protocol
/// spec.protocol_spec denotes (the CLI layer constructs it; library callers
/// pass their own). Exhaustive specs run spec.tasks through
/// sweep_fault_tasks — the loop the in-process exhaustive runner uses;
/// adaptive specs run this shard's stride of the trial index space through
/// run_statistical_verdict and record the verdict tally. The classifier is
/// consulted for every execution (accept_classifier gives the canonical
/// one); kWrongOutput tallies into wrong_outputs and kDeadlockOrFault into
/// engine_failures. A worker-local budget overrun is caught and recorded as
/// budget_exceeded (see ShardResult); classifier exceptions propagate.
[[nodiscard]] ShardResult run_shard(const ShardSpec& spec, const Protocol& p,
                                    const FaultClassifier& classify,
                                    std::size_t threads);

/// Merge a complete result set (any order) into the sweep's totals.
/// Throws wb::DataError when the set is not exactly one result per shard of
/// one plan — including when results disagree on the distinct-accumulator
/// kind (an exact count and an hll estimate must never be combined) — and
/// BudgetExceededError when the combined execution count exceeds the
/// recorded budget — the same observable behavior as the serial oracle at
/// any shard count and any assignment of shards to hosts.
[[nodiscard]] MergedResult merge_shard_results(
    std::span<const ShardResult> results);

}  // namespace wb::shard
