#include "src/graph/graph.h"

#include <algorithm>

namespace wb {

namespace {

/// After scattering with offsets_[v-1] as the per-node write cursor,
/// offsets[v-1] holds end-of-v; shift right to restore the canonical
/// "offsets[v] = end of v's block" convention.
void restore_offsets(std::vector<std::uint64_t>& offsets, std::size_t n) {
  for (std::size_t v = n; v >= 1; --v) offsets[v] = offsets[v - 1];
  offsets[0] = 0;
}

}  // namespace

Graph::Graph(std::size_t n) : Graph(n, {}) {}

Graph::Graph(std::size_t n, std::span<const Edge> edges) {
  n_ = n;
  m_ = edges.size();
  offsets_.assign(n_ + 1, 0);
  for (const Edge& e : edges) {
    WB_CHECK_MSG(e.u >= 1 && e.v <= n_ && e.u < e.v,
                 "edge {" << e.u << "," << e.v << "} invalid for n=" << n_);
    ++offsets_[e.u];
    ++offsets_[e.v];
  }
  for (std::size_t v = 1; v <= n_; ++v) offsets_[v] += offsets_[v - 1];
  adjacency_.resize(2 * m_);
  for (const Edge& e : edges) {
    adjacency_[static_cast<std::size_t>(offsets_[e.u - 1]++)] = e.v;
    adjacency_[static_cast<std::size_t>(offsets_[e.v - 1]++)] = e.u;
  }
  restore_offsets(offsets_, n_);
  // Blocks interleave u- and v-sides; sort each so neighbors() is ordered and
  // has_edge can bisect. Sorted blocks also make duplicates adjacent.
  for (std::size_t v = 1; v <= n_; ++v) {
    const auto first =
        adjacency_.begin() + static_cast<std::ptrdiff_t>(offsets_[v - 1]);
    const auto last =
        adjacency_.begin() + static_cast<std::ptrdiff_t>(offsets_[v]);
    std::sort(first, last);
    WB_CHECK_MSG(std::adjacent_find(first, last) == last,
                 "duplicate edge in edge list");
  }
}

Graph Graph::from_unsorted_edges(std::size_t n, std::vector<Edge>&& edges) {
  for (Edge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
    WB_CHECK_MSG(e.u >= 1 && e.v <= n && e.u != e.v,
                 "edge {" << e.u << "," << e.v << "} invalid for n=" << n);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  Graph g(n, edges);
  edges.clear();
  edges.shrink_to_fit();
  return g;
}

Graph Graph::from_pair_stream(std::size_t n, const PairReplay& emit_all,
                              BuildStats* stats) {
  Graph g;
  g.n_ = n;
  g.offsets_.assign(n + 1, 0);
  BuildStats local;

  // Pass 1: count degrees (validating endpoints, dropping self-loops).
  emit_all([&](NodeId a, NodeId b) {
    WB_CHECK_MSG(a >= 1 && a <= n && b >= 1 && b <= n,
                 "pair {" << a << "," << b << "} out of range 1.." << n);
    ++local.pairs;
    if (a == b) {
      ++local.self_loops_dropped;
      return;
    }
    ++g.offsets_[a];
    ++g.offsets_[b];
  });
  for (std::size_t v = 1; v <= n; ++v) g.offsets_[v] += g.offsets_[v - 1];
  const std::size_t total = n == 0 ? 0 : static_cast<std::size_t>(g.offsets_[n]);
  g.adjacency_.resize(total);
  local.peak_bytes = g.offsets_.capacity() * sizeof(std::uint64_t) +
                     g.adjacency_.capacity() * sizeof(NodeId);

  // Pass 2: scatter both arc directions, offsets_[v-1] as write cursor. The
  // cursors were sized by pass 1, so a replay that emits more or other pairs
  // (e.g. a file changed between passes) must be refused before it writes
  // out of bounds.
  std::size_t replayed = 0;
  emit_all([&](NodeId a, NodeId b) {
    ++replayed;
    WB_CHECK_MSG(a >= 1 && a <= n && b >= 1 && b <= n,
                 "pair stream replay differs from its first pass at pair {"
                     << a << "," << b << "}");
    if (a == b) return;
    const auto at_a = static_cast<std::size_t>(g.offsets_[a - 1]++);
    const auto at_b = static_cast<std::size_t>(g.offsets_[b - 1]++);
    WB_CHECK_MSG(at_a < total && at_b < total,
                 "pair stream replay differs from its first pass at pair {"
                     << a << "," << b << "}");
    g.adjacency_[at_a] = b;
    g.adjacency_[at_b] = a;
  });
  WB_CHECK_MSG(replayed == local.pairs,
               "pair stream replayed " << replayed << " pairs, expected "
                                       << local.pairs);
  restore_offsets(g.offsets_, n);

  const std::size_t cap_before = g.adjacency_.capacity();
  local.duplicates_dropped = g.dedup_blocks();
  if (g.adjacency_.capacity() != cap_before) {
    // shrink_to_fit holds old + new buffers while copying.
    local.peak_bytes =
        std::max(local.peak_bytes,
                 g.offsets_.capacity() * sizeof(std::uint64_t) +
                     (cap_before + g.adjacency_.capacity()) * sizeof(NodeId));
  }
  if (stats != nullptr) *stats = local;
  return g;
}

std::size_t Graph::dedup_blocks() {
  std::size_t w = 0;
  std::size_t dropped = 0;
  std::uint64_t prev_end = 0;
  for (std::size_t v = 1; v <= n_; ++v) {
    const auto start = static_cast<std::size_t>(prev_end);
    const auto end = static_cast<std::size_t>(offsets_[v]);
    prev_end = offsets_[v];
    std::sort(adjacency_.begin() + static_cast<std::ptrdiff_t>(start),
              adjacency_.begin() + static_cast<std::ptrdiff_t>(end));
    for (std::size_t i = start; i < end; ++i) {
      if (i > start && adjacency_[i] == adjacency_[i - 1]) {
        ++dropped;
        continue;
      }
      adjacency_[w++] = adjacency_[i];
    }
    offsets_[v] = w;
  }
  WB_CHECK(w % 2 == 0);  // symmetric input: every arc has its mate
  m_ = w / 2;
  adjacency_.resize(w);
  // Only realloc when the dedup slack is worth paying the copy for (the copy
  // itself transiently holds both buffers).
  if (adjacency_.capacity() > w + w / 8) adjacency_.shrink_to_fit();
  WB_CHECK(dropped % 2 == 0);  // duplicates arrive as whole arc pairs too
  return dropped / 2;  // duplicate *edges*, matching BuildStats

}

bool Graph::has_edge(NodeId u, NodeId v) const {
  check_id(u);
  check_id(v);
  if (u == v) return false;
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<Edge> Graph::edge_vector() const {
  std::vector<Edge> out;
  out.reserve(m_);
  for (const Edge e : edges()) out.push_back(e);
  return out;
}

bool GraphBuilder::add_edge(NodeId a, NodeId b) {
  WB_CHECK_MSG(a != b, "self-loop at node " << a);
  WB_CHECK_MSG(a >= 1 && a <= n_ && b >= 1 && b <= n_,
               "edge {" << a << "," << b << "} out of range 1.." << n_);
  const Edge e = make_edge(a, b);
  if (!present_.insert(key(e)).second) return false;
  edges_.push_back(e);
  return true;
}

bool GraphBuilder::has_edge(NodeId a, NodeId b) const {
  if (a == b) return false;
  return present_.contains(key(make_edge(a, b)));
}

Graph GraphBuilder::build() const {
  return Graph::from_unsorted_edges(n_, std::vector<Edge>(edges_));
}

Graph relabel(const Graph& g, std::span<const NodeId> perm) {
  WB_CHECK(perm.size() == g.node_count());
  std::vector<bool> seen(g.node_count() + 1, false);
  for (NodeId p : perm) {
    WB_CHECK_MSG(p >= 1 && p <= g.node_count() && !seen[p],
                 "not a permutation of 1..n");
    seen[p] = true;
  }
  std::vector<Edge> edges;
  edges.reserve(g.edge_count());
  for (const Edge e : g.edges()) {
    edges.push_back(make_edge(perm[e.u - 1], perm[e.v - 1]));
  }
  return Graph(g.node_count(), edges);
}

}  // namespace wb
