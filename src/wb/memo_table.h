// The memo table of the memoizing exhaustive sweep (wb::sweep_memoized).
//
// A flat open-addressing table from 128-bit engine-state keys
// (EngineState::memo_key) to subtree totals. Each slot is 24 bytes: the key
// and one packed word holding the subtree's execution count. Almost every
// memoized subtree is all-successful and all-correct, so its failure and
// wrong-output tallies are zero and need no room; the rare entry that has a
// non-zero tally, or an execution count of 2^63 or more, sets the packed
// word's top bit and keeps its full totals in a small side map.
//
//  - Key {0,0} marks an empty slot. A real {0,0} key is stored as
//    kZeroKeyStandIn, a fixed key that real digests reach with the same
//    ~2^-128 chance as any other collision.
//  - Linear probing from a home slot chosen by multiply-shift
//    ((lo * capacity) >> 64), so the capacity need not be a power of two.
//  - The table grows by 1.5x once it would pass 4/5 load. Doubling would
//    leave the old and new arrays together at 3x the live table during the
//    last rehash; 1.5x keeps that peak at 2.5x of a smaller array.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/support/hash.h"

namespace wb {

/// Totals of one memoized subtree.
struct MemoEntry {
  std::uint64_t executions = 0;
  std::uint64_t engine_failures = 0;
  std::uint64_t wrong_outputs = 0;
};

class MemoTable {
 public:
  /// Stand-in for a real {0,0} key (the empty-slot marker).
  static constexpr Hash128 kZeroKeyStandIn{0x243f6a8885a308d3ULL,
                                           0x13198a2e03707344ULL};

  MemoTable() : slots_(1024) {}

  /// True, with `out` filled, when `key` is in the table.
  [[nodiscard]] bool find(Hash128 key, MemoEntry& out) const {
    key = stored_key(key);
    for (std::size_t i = home(key);; i = next(i)) {
      const Slot& s = slots_[i];
      if (s.lo == key.lo && s.hi == key.hi) {
        if ((s.packed & kSideFlag) == 0) {
          out = MemoEntry{s.packed, 0, 0};
        } else {
          out = side_.at(key);
        }
        return true;
      }
      if (s.lo == 0 && s.hi == 0) return false;
    }
  }

  /// Add `key`, which must not be in the table yet.
  void insert(Hash128 key, const MemoEntry& entry) {
    key = stored_key(key);
    if ((size_ + 1) * 5 > slots_.size() * 4) grow();
    std::uint64_t packed = entry.executions;
    if (entry.engine_failures != 0 || entry.wrong_outputs != 0 ||
        (entry.executions & kSideFlag) != 0) {
      packed = kSideFlag;
      side_.emplace(key, entry);
    }
    place(Slot{key.lo, key.hi, packed});
    ++size_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  /// Entries whose totals live in the side map.
  [[nodiscard]] std::size_t side_entries() const noexcept {
    return side_.size();
  }

 private:
  struct Slot {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::uint64_t packed = 0;  // executions, or kSideFlag
  };
  static_assert(sizeof(Slot) == 24);
  static constexpr std::uint64_t kSideFlag = std::uint64_t{1} << 63;

  struct KeyHasher {
    std::size_t operator()(const Hash128& h) const noexcept {
      return static_cast<std::size_t>(h.lo ^ h.hi);
    }
  };

  [[nodiscard]] static Hash128 stored_key(Hash128 key) noexcept {
    return key.lo == 0 && key.hi == 0 ? kZeroKeyStandIn : key;
  }
  [[nodiscard]] std::size_t home(const Hash128& key) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(key.lo) * slots_.size()) >> 64);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
    return i + 1 == slots_.size() ? 0 : i + 1;
  }

  /// Put `slot` in the first empty slot of its probe sequence.
  void place(const Slot& slot) {
    std::size_t i = home(Hash128{slot.lo, slot.hi});
    while (slots_[i].lo != 0 || slots_[i].hi != 0) i = next(i);
    slots_[i] = slot;
  }

  void grow() {
    std::vector<Slot> old(slots_.size() + slots_.size() / 2);
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.lo != 0 || s.hi != 0) place(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::unordered_map<Hash128, MemoEntry, KeyHasher> side_;
};

}  // namespace wb
