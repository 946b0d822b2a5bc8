// Memoized-exploration microbenchmarks: what hash-consed state memoization
// buys over enumerating every schedule.
//
//  - BM_EnumeratedAnonDegree/n vs BM_MemoizedAnonDegree/n — the same
//    instance through the serial enumerator with and without hash-consed
//    state memoization; `states_per_schedule` is the collapse headline.
//
// (The file keeps its historical name: perfbench/README.md maps
// BM_MemoizedAnonDegree here.) CI merges this harness's JSON into
// BENCH_pr10.json next to the committed BENCH_pr{2..10}.json trajectory
// (tools/bench_diff.py renders the table).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "src/graph/generators.h"
#include "src/protocols/anon_frontier.h"
#include "src/wb/exhaustive.h"

namespace wb {
namespace {

std::uint64_t factorial(std::uint64_t n) {
  std::uint64_t f = 1;
  for (std::uint64_t i = 2; i <= n; ++i) f *= i;
  return f;
}

const auto kAcceptAll = [](const ExecutionResult&) { return true; };

void BM_EnumeratedAnonDegree(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = star_graph(n);
  const AnonDegreeProtocol p;
  ExhaustiveOptions opts;
  opts.threads = 1;
  std::uint64_t execs = 0;
  for (auto _ : state) {
    execs += for_each_execution(g, p, kAcceptAll, opts);
  }
  state.counters["executions_per_s"] = benchmark::Counter(
      static_cast<double>(execs), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(execs));
}
BENCHMARK(BM_EnumeratedAnonDegree)
    ->Arg(6)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MemoizedAnonDegree(benchmark::State& state) {
  // The same sweep through sweep_memoized: anonymous messages converge, so
  // the tree collapses — states_per_schedule is the fraction of the n!
  // schedule tree the memoized sweep actually walks.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = star_graph(n);
  const AnonDegreeProtocol p;
  ExhaustiveOptions opts;
  opts.threads = 1;
  opts.memoize = true;
  MemoizedTotals totals;
  std::uint64_t execs = 0;
  for (auto _ : state) {
    totals = sweep_memoized(g, p, kAcceptAll, opts);
    benchmark::DoNotOptimize(totals);
    execs += totals.executions;
  }
  if (totals.executions != factorial(n)) {
    state.SkipWithError("memoized count disagrees with n!");
    return;
  }
  state.counters["states_explored"] =
      benchmark::Counter(static_cast<double>(totals.states_explored));
  state.counters["memo_hits"] =
      benchmark::Counter(static_cast<double>(totals.memo_hits));
  state.counters["states_per_schedule"] =
      benchmark::Counter(static_cast<double>(totals.states_explored) /
                         static_cast<double>(totals.executions));
  state.SetItemsProcessed(static_cast<std::int64_t>(execs));
}
BENCHMARK(BM_MemoizedAnonDegree)
    ->Arg(6)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wb

BENCHMARK_MAIN();
