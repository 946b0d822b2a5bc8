// The million-node graph substrate, quantified:
//
//  - RMAT generation (Graph500 A=.57/B=.19/C=.19/D=.05) straight into packed
//    CSR via the two-pass pair stream — the `peak_over_csr` counter is the
//    whole point: peak build memory over the final CSR footprint must stay
//    well under the 1.5x acceptance line (the old edge-vector design paid
//    ~3x).
//  - Bulk CSR assembly from a flat unsorted edge buffer (from_unsorted_edges,
//    the generator/builder path): CSR MB/s.
//  - The streaming edge-list loader on a seekable source: input MB/s parsed,
//    again with peak_over_csr.
//  - The BFS reference oracle at scale (the verdict checker protocols are
//    measured against): edges/s and traversal rounds.
//  - The engine's two rounds on a sparse-frontier instance (sync-bfs on a
//    star: after the hub writes, every later round touches one leaf whose
//    whole neighborhood is already written, so the frontier round
//    recomposes nothing while the reference round rescans every active
//    leaf). A journaling state runs the reference round, any other state
//    the frontier round. `rounds_per_s` is the headline ratio.
//  - One sync-bfs execution on rmat:12:16 under a random adversary, the
//    `rmat_bfs` workload of perfbench: its `rounds_per_s` should agree with
//    the end-to-end number.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/protocols/bfs_sync.h"
#include "src/wb/adversary.h"
#include "src/wb/engine.h"

namespace wb {
namespace {

constexpr std::size_t kEdgeFactor = 16;

void BM_RmatGenerate(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  Graph::BuildStats stats;
  std::size_t csr_bytes = 0;
  std::size_t edges = 0;
  for (auto _ : state) {
    const Graph g = rmat_graph(scale, kEdgeFactor, 1, &stats);
    csr_bytes = g.memory_bytes();
    edges = g.edge_count();
    benchmark::DoNotOptimize(&g);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      csr_bytes * static_cast<std::size_t>(state.iterations())));
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["peak_over_csr"] =
      static_cast<double>(stats.peak_bytes) / static_cast<double>(csr_bytes);
}
BENCHMARK(BM_RmatGenerate)->DenseRange(16, 20, 2)
    ->Unit(benchmark::kMillisecond);

void BM_CsrFromUnsortedEdges(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  const Graph seed = rmat_graph(scale, kEdgeFactor, 1);
  const std::vector<Edge> edges = seed.edge_vector();
  const std::size_t csr_bytes = seed.memory_bytes();
  for (auto _ : state) {
    std::vector<Edge> buffer = edges;  // the build consumes its input
    const Graph g =
        Graph::from_unsorted_edges(seed.node_count(), std::move(buffer));
    benchmark::DoNotOptimize(&g);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      csr_bytes * static_cast<std::size_t>(state.iterations())));
}
BENCHMARK(BM_CsrFromUnsortedEdges)->DenseRange(16, 20, 2)
    ->Unit(benchmark::kMillisecond);

void BM_EdgeListLoad(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  const Graph g = rmat_graph(scale, kEdgeFactor, 1);
  std::string text;
  {
    std::ostringstream os;
    write_edge_list(g, os);
    text = std::move(os).str();
  }
  EdgeListLoadStats stats;
  for (auto _ : state) {
    std::istringstream in(text);
    const Graph h = read_edge_list(in, {}, &stats);
    benchmark::DoNotOptimize(&h);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      text.size() * static_cast<std::size_t>(state.iterations())));
  state.counters["two_pass"] = stats.two_pass ? 1.0 : 0.0;
  state.counters["peak_over_csr"] =
      static_cast<double>(stats.build.peak_bytes) /
      static_cast<double>(g.memory_bytes());
}
BENCHMARK(BM_EdgeListLoad)->DenseRange(16, 20, 2)
    ->Unit(benchmark::kMillisecond);

void BM_BfsOracle(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  const Graph g = rmat_graph(scale, kEdgeFactor, 1);
  int rounds = 0;
  for (auto _ : state) {
    const BfsForest f = bfs_forest(g);
    rounds = 0;
    for (const int l : f.layer) rounds = std::max(rounds, l + 1);
    benchmark::DoNotOptimize(&f);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      g.edge_count() * static_cast<std::size_t>(state.iterations())));
  state.counters["rounds"] = static_cast<double>(rounds);
}
BENCHMARK(BM_BfsOracle)->DenseRange(16, 20, 2)->Unit(benchmark::kMillisecond);

/// run_protocol's loop on a state that journals (the reference round) or
/// not (the frontier round). Returns the rounds stepped.
std::size_t run_sync_bfs(const Graph& g, Adversary& adv, bool journaling) {
  const SyncBfsProtocol p;
  adv.reset();
  EngineState s(g, p);
  s.set_journaling(journaling);
  while (true) {
    s.begin_round();
    if (s.terminal()) break;
    s.write(adv.choose(s.candidates(), s.board(), s.round()));
  }
  const ExecutionResult r = std::move(s).finish();
  WB_CHECK(r.ok());
  return r.stats.rounds;
}

void set_rounds_per_s(benchmark::State& state, std::size_t rounds) {
  state.counters["rounds_per_s"] = benchmark::Counter(
      static_cast<double>(rounds * static_cast<std::size_t>(state.iterations())),
      benchmark::Counter::kIsRate);
}

void sync_bfs_star_rounds(benchmark::State& state, bool journaling) {
  const Graph g = star_graph(static_cast<std::size_t>(state.range(0)));
  FirstAdversary first;
  std::size_t rounds = 0;
  for (auto _ : state) rounds = run_sync_bfs(g, first, journaling);
  set_rounds_per_s(state, rounds);
}

void BM_SyncBfsStarReference(benchmark::State& state) {
  sync_bfs_star_rounds(state, /*journaling=*/true);
}
BENCHMARK(BM_SyncBfsStarReference)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_SyncBfsStarFrontier(benchmark::State& state) {
  sync_bfs_star_rounds(state, /*journaling=*/false);
}
BENCHMARK(BM_SyncBfsStarFrontier)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_SyncBfsRmat(benchmark::State& state) {
  const Graph g = rmat_graph(static_cast<int>(state.range(0)), kEdgeFactor, 7);
  RandomAdversary random(7);
  std::size_t rounds = 0;
  for (auto _ : state) rounds = run_sync_bfs(g, random, /*journaling=*/false);
  set_rounds_per_s(state, rounds);
}
BENCHMARK(BM_SyncBfsRmat)->Arg(12)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wb

BENCHMARK_MAIN();
