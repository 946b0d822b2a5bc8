// Self-contained hash-consed BDD package (no external CUDD dependency —
// the repo builds offline).
//
// Reduced ordered BDDs with canonical negation: both terminal nodes exist
// (kBddFalse / kBddTrue) and every function has exactly one node index, so
// semantic equality is pointer equality (`a == b` on BddRef). Variables are
// identified by their *order rank*: variable 0 is the topmost decision in
// every BDD. The symbolic engine maps engine state bits to ranks through a
// BoardLayout (src/sym/encode.h), which fixes the order before any node is
// built.
//
// Operations: ITE with a computed cache (AND/OR/XOR/NOT/IFF are ITE
// spellings and share it), existential quantification over a variable set,
// variable-pair substitution (order-preserving renames), cube construction,
// and sat_count model counting over an explicit variable universe.
//
// Memory model: nodes are append-only and live for the manager's lifetime
// (no garbage collection — whiteboard image fixpoints are short-lived and
// bounded; stats() exposes the growth so callers can see the cost). All
// BddRefs from one manager stay valid until the manager is destroyed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/support/check.h"

namespace wb::sym {

/// Handle to a BDD node. Refs are only meaningful with the manager that
/// produced them; equal refs = equal boolean functions (canonicity).
using BddRef = std::uint32_t;

inline constexpr BddRef kBddFalse = 0;
inline constexpr BddRef kBddTrue = 1;

struct BddStats {
  std::size_t vars = 0;
  std::size_t nodes = 0;           // live nodes, terminals included
  std::uint64_t unique_hits = 0;   // make_node served from the unique table
  std::uint64_t unique_misses = 0; // fresh nodes allocated
  std::uint64_t cache_hits = 0;    // computed-cache hits (ITE)
  std::uint64_t cache_lookups = 0;
  std::uint64_t ite_calls = 0;     // recursive ITE invocations
};

/// One positive or negative literal of a cube: (variable rank, phase).
using BddLiteral = std::pair<std::uint32_t, bool>;

class BddManager {
 public:
  /// A manager over variables 0..var_count-1 in that (fixed) order.
  explicit BddManager(std::size_t var_count);

  [[nodiscard]] std::size_t var_count() const noexcept { return var_count_; }

  /// The single-variable function x_v (and its negation).
  [[nodiscard]] BddRef var(std::uint32_t v);
  [[nodiscard]] BddRef nvar(std::uint32_t v);

  /// if-then-else: f ? g : h. The one connective everything else reduces to.
  [[nodiscard]] BddRef ite(BddRef f, BddRef g, BddRef h);

  [[nodiscard]] BddRef bdd_not(BddRef f) { return ite(f, kBddFalse, kBddTrue); }
  [[nodiscard]] BddRef bdd_and(BddRef a, BddRef b) { return ite(a, b, kBddFalse); }
  [[nodiscard]] BddRef bdd_or(BddRef a, BddRef b) { return ite(a, kBddTrue, b); }
  [[nodiscard]] BddRef bdd_xor(BddRef a, BddRef b) {
    return ite(a, bdd_not(b), b);
  }
  [[nodiscard]] BddRef bdd_iff(BddRef a, BddRef b) {
    return ite(a, b, bdd_not(b));
  }

  /// Conjunction of literals. `lits` must be sorted by variable rank,
  /// strictly ascending.
  [[nodiscard]] BddRef cube(std::span<const BddLiteral> lits);

  /// ∃ vars. f — `vars` sorted ascending, duplicates allowed but useless.
  [[nodiscard]] BddRef exists(BddRef f, std::span<const std::uint32_t> vars);

  /// Simultaneous variable rename: every node labelled `from` becomes
  /// `to` per `pairs` (sorted by `from`, strictly ascending). The rename
  /// must preserve relative order against the untouched variables in f's
  /// support — make_node checks and throws LogicError otherwise.
  [[nodiscard]] BddRef substitute(
      BddRef f, std::span<const std::pair<std::uint32_t, std::uint32_t>> pairs);

  /// Exact model count of f over `universe` (sorted ascending). Every
  /// variable in f's support must be in the universe (LogicError otherwise);
  /// universe variables outside the support double the count. Throws
  /// DataError if the count exceeds 2^64 - 1.
  [[nodiscard]] std::uint64_t sat_count(
      BddRef f, std::span<const std::uint32_t> universe) const;

  /// Evaluate under a full assignment (assignment[v] = value of variable v).
  [[nodiscard]] bool eval(BddRef f, const std::vector<bool>& assignment) const;

  [[nodiscard]] const BddStats& stats() const noexcept { return stats_; }

 private:
  struct Node {
    std::uint32_t var;  // order rank; kTerminalVar on terminals
    BddRef lo;          // var = 0 branch
    BddRef hi;          // var = 1 branch
  };
  static constexpr std::uint32_t kTerminalVar = 0xffffffffu;

  struct CacheEntry {
    BddRef f = 0, g = 0, h = 0;
    BddRef result = kInvalid;
  };
  static constexpr BddRef kInvalid = 0xffffffffu;

  [[nodiscard]] BddRef make_node(std::uint32_t var, BddRef lo, BddRef hi);
  [[nodiscard]] std::uint32_t rank(BddRef f) const noexcept {
    return nodes_[f].var;  // kTerminalVar sorts after every real variable
  }
  void grow_unique_table();
  [[nodiscard]] std::size_t unique_slot(std::uint32_t var, BddRef lo,
                                        BddRef hi) const noexcept;

  std::size_t var_count_;
  std::vector<Node> nodes_;
  /// Open-addressed unique table of node indexes + 1 (0 = empty slot).
  std::vector<std::uint32_t> unique_;
  std::size_t unique_mask_ = 0;
  std::vector<CacheEntry> cache_;
  std::size_t cache_mask_ = 0;
  mutable BddStats stats_;
};

}  // namespace wb::sym
