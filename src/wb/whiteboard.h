// The shared whiteboard: an append-only sequence of bit-string messages.
//
// Faithful to §2: nodes and the output function observe the *sequence of
// messages in write order* and nothing else. In particular the whiteboard
// does not reveal writer identities — every protocol in the paper embeds
// ID(v) in its own message when it needs to be identified.
//
// Memory model: the message storage is a shared, logically immutable prefix.
// A Whiteboard is a (storage, count) pair — copying one is O(1) (it shares
// the storage and remembers how much of it is "its" board), which is what
// snapshotting a board into an ExecutionResult costs. Appends extend the
// shared storage in place when that is safe (the new slot is past every
// sharer's count) and clone the live prefix only when a stale-prefix holder
// diverges. truncate() lets the engine's backtracking explorer unwind writes;
// it pops storage physically only when this board is the sole owner.
//
// Next to each message the storage keeps the running content-hash state
// after it, so content_hash() of any prefix is O(1) — the memoizing sweep
// keys every branch point by it.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/support/bitio.h"
#include "src/support/hash.h"

namespace wb {

class Whiteboard {
 public:
  Whiteboard() = default;
  Whiteboard(const Whiteboard&) = default;
  Whiteboard& operator=(const Whiteboard&) = default;
  // User-defined moves: the logical size lives outside the shared storage
  // pointer, so a moved-from board must drop its count with the storage or
  // its accessors would index through null.
  Whiteboard(Whiteboard&& other) noexcept
      : entries_(std::move(other.entries_)),
        count_(std::exchange(other.count_, 0)),
        total_bits_(std::exchange(other.total_bits_, 0)),
        cache_(std::move(other.cache_)) {}
  Whiteboard& operator=(Whiteboard&& other) noexcept {
    if (this != &other) {
      entries_ = std::move(other.entries_);
      count_ = std::exchange(other.count_, 0);
      total_bits_ = std::exchange(other.total_bits_, 0);
      cache_ = std::move(other.cache_);
    }
    return *this;
  }

  /// Pre-size the storage. The engine reserves n slots up front so a whole
  /// run appends without a single reallocation (and without invalidating
  /// spans handed out by messages()).
  void reserve(std::size_t message_capacity) {
    own_tail();
    entries_->messages.reserve(message_capacity);
    entries_->running.reserve(message_capacity);
  }

  /// Appends keep the cached view: it describes a prefix of the new board,
  /// and the next cached_view() call extends it over the new messages.
  void append(Bits message) {
    total_bits_ += message.size();
    own_tail();
    Hasher128 h = count_ == 0 ? Hasher128{} : entries_->running[count_ - 1];
    h.update(message.size());
    const std::uint64_t* words = message.word_data();
    for (std::size_t w = 0, e = message.word_count(); w < e; ++w) {
      h.update(words[w]);
    }
    entries_->messages.push_back(std::move(message));
    entries_->running.push_back(h);
    ++count_;
  }

  /// Drop every message past the first `new_count`. O(messages dropped).
  /// A cached view of a prefix that survives stays valid (the prefix is
  /// immutable); a view that covers dropped messages is dropped with them.
  void truncate(std::size_t new_count) {
    WB_CHECK(new_count <= count_);
    for (std::size_t i = new_count; i < count_; ++i) {
      total_bits_ -= entries_->messages[i].size();
    }
    count_ = new_count;
    if (cache_ != nullptr && cache_->count > count_) cache_.reset();
    if (entries_ != nullptr && entries_.use_count() == 1) {
      entries_->resize(count_);  // sole owner: free the dead tail now
    }
  }

  [[nodiscard]] std::size_t message_count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  [[nodiscard]] const Bits& message(std::size_t i) const {
    WB_CHECK(i < count_);
    return entries_->messages[i];
  }

  [[nodiscard]] std::span<const Bits> messages() const noexcept {
    return entries_ == nullptr
               ? std::span<const Bits>()
               : std::span<const Bits>(entries_->messages.data(), count_);
  }

  /// Total bits currently on the whiteboard (the Lemma 3 budget).
  [[nodiscard]] std::size_t total_bits() const noexcept { return total_bits_; }

  /// Word-wise 128-bit hash of the board contents (message lengths and
  /// words, in write order). Two boards with equal contents hash equally;
  /// distinct boards collide with probability ~2^-128. O(1): append()
  /// stored the hasher state after the last message.
  [[nodiscard]] Hash128 content_hash() const noexcept {
    return count_ == 0 ? Hasher128{}.digest()
                       : entries_->running[count_ - 1].digest();
  }

  /// Memoized decoded view of the board, extended on append.
  ///
  /// Protocol callbacks are invoked O(n) times per round on the same
  /// whiteboard, and the board grows by one message per round. The view is
  /// one slot keyed by (view type, message count): `init()` returns the view
  /// of the empty board, and `extend(view, appended)` folds the messages
  /// past the slot's count into it. So a long run decodes each message once
  /// instead of re-decoding the whole board after every append.
  ///  - A slot this board alone holds is extended in place.
  ///  - A slot shared with a copy (an ExecutionResult snapshot, an explorer
  ///    branch) is never mutated: this board rebuilds its own from `init()`.
  ///  - truncate() drops a slot that covers dropped messages.
  ///  - If `extend` throws, the slot is dropped, so the next call rebuilds
  ///    and throws at the same message.
  /// The slot is a single allocation; the view type is identified by a
  /// tagged static, not typeid. Folding a board in one call or in several
  /// must give the same view, and `extend` must be a pure function of the
  /// view and the messages (the requirement §2 places on act/msg).
  template <typename T, typename Init, typename Extend>
  const T& cached_view(const Init& init, const Extend& extend) const {
    if (cache_ != nullptr && cache_->tag == type_tag<T>()) {
      auto* slot = static_cast<CacheSlot<T>*>(cache_.get());
      if (slot->count == count_) return slot->value;
      if (cache_.use_count() == 1) {
        try {
          extend(slot->value, messages().subspan(slot->count));
        } catch (...) {
          cache_.reset();
          throw;
        }
        slot->count = count_;
        return slot->value;
      }
    }
    auto slot = std::make_shared<CacheSlot<T>>();
    slot->tag = type_tag<T>();
    slot->count = count_;
    slot->value = init();
    extend(slot->value, messages());
    const T& ref = slot->value;
    cache_ = std::move(slot);
    return ref;
  }

 private:
  struct CacheBase {
    const void* tag = nullptr;
    std::size_t count = 0;
  };
  template <typename T>
  struct CacheSlot final : CacheBase {
    T value{};
  };

  /// Address-unique tag per view type (replaces typeid/type_index).
  /// Deliberately non-const: identical-COMDAT folding (e.g. MSVC /OPT:ICF)
  /// may merge read-only instantiations across T, mutable data never folds.
  template <typename T>
  static const void* type_tag() noexcept {
    static char tag = 0;
    return &tag;
  }

  /// Make entries_ safe to push_back into: allocate on first use, and clone
  /// the live prefix when this board is a stale-prefix holder of shared
  /// storage (appending in place would clobber an entry another holder can
  /// still read).
  void own_tail() {
    if (entries_ == nullptr) {
      entries_ = std::make_shared<Storage>();
    } else if (count_ < entries_->messages.size()) {
      if (entries_.use_count() == 1) {
        entries_->resize(count_);
      } else {
        auto fresh = std::make_shared<Storage>();
        const auto end = static_cast<std::ptrdiff_t>(count_);
        fresh->messages.reserve(entries_->messages.capacity());
        fresh->messages.assign(entries_->messages.begin(),
                               entries_->messages.begin() + end);
        fresh->running.reserve(entries_->running.capacity());
        fresh->running.assign(entries_->running.begin(),
                              entries_->running.begin() + end);
        entries_ = std::move(fresh);
      }
    }
  }

  /// The shared message prefix; running[i] is the content hasher's state
  /// after messages[0..i], so the two vectors always have equal length.
  struct Storage {
    std::vector<Bits> messages;
    std::vector<Hasher128> running;
    void resize(std::size_t count) {
      messages.resize(count);
      running.resize(count);
    }
  };

  std::shared_ptr<Storage> entries_;
  std::size_t count_ = 0;
  std::size_t total_bits_ = 0;
  mutable std::shared_ptr<CacheBase> cache_;
};

}  // namespace wb
