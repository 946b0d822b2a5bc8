// Exact bit-level message encoding.
//
// Every whiteboard message in this library is a bit string produced by a
// BitWriter and consumed by a BitReader. The engine accounts message sizes in
// bits, which is the currency of all bounds in the paper (O(log n), o(n), ...).
//
// Supported primitives:
//  - fixed-width unsigned fields (width known to both sides),
//  - Elias gamma codes for positive integers of unknown magnitude,
//  - raw bit runs (adjacency rows for SUBGRAPH_f / BuildFull).
//
// Memory model: Bits stores messages of up to kInlineBits bits (two 64-bit
// words — every O(log n) message at any realistic n) inline, with no heap
// allocation; longer messages own a heap word array. Unused bits of the last
// word are always zero ("masked tail"), so equality and hashing are word-wise
// regardless of how the bit string was produced.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/support/check.h"

namespace wb {

/// An immutable bit string with an exact length in bits.
class Bits {
 public:
  /// Messages of at most kInlineBits bits live inside the object.
  static constexpr std::size_t kInlineWords = 2;
  static constexpr std::size_t kInlineBits = kInlineWords * 64;

  Bits() noexcept = default;

  /// From raw LSB-first packed words: copies word_count() words and masks the
  /// tail, so two bit-equal strings compare equal even if the source buffers
  /// carried garbage beyond bit n_bits.
  Bits(const std::uint64_t* words, std::size_t n_bits) : n_bits_(n_bits) {
    std::uint64_t* dst = init_storage();
    std::copy_n(words, word_count(), dst);
    mask_tail(dst);
  }

  Bits(const std::vector<std::uint64_t>& words, std::size_t n_bits)
      : n_bits_(n_bits) {
    WB_CHECK(words.size() * 64 >= n_bits);
    std::uint64_t* dst = init_storage();
    std::copy_n(words.data(), word_count(), dst);
    mask_tail(dst);
  }

  Bits(const Bits& other) : n_bits_(other.n_bits_) {
    std::copy_n(other.word_data(), word_count(), init_storage());
  }
  Bits(Bits&& other) noexcept : n_bits_(other.n_bits_), rep_(other.rep_) {
    other.n_bits_ = 0;  // heap ownership (if any) moved here
  }
  Bits& operator=(Bits other) noexcept {
    swap(other);
    return *this;
  }
  ~Bits() {
    if (!is_inline()) delete[] rep_.heap;
  }

  void swap(Bits& other) noexcept {
    std::swap(n_bits_, other.n_bits_);
    std::swap(rep_, other.rep_);
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_bits_; }
  [[nodiscard]] bool empty() const noexcept { return n_bits_ == 0; }

  [[nodiscard]] bool bit(std::size_t i) const {
    WB_CHECK(i < n_bits_);
    return (word_data()[i / 64] >> (i % 64)) & 1u;
  }

  /// Number of 64-bit words backing this string: ceil(size / 64).
  [[nodiscard]] std::size_t word_count() const noexcept {
    return (n_bits_ + 63) / 64;
  }

  /// LSB-first packed words; bits past size() in the last word are zero.
  [[nodiscard]] const std::uint64_t* word_data() const noexcept {
    return is_inline() ? rep_.inline_words : rep_.heap;
  }

  [[nodiscard]] std::uint64_t word(std::size_t i) const {
    WB_CHECK(i < word_count());
    return word_data()[i];
  }

  /// Word-wise comparison — valid because tail words are masked on
  /// construction.
  friend bool operator==(const Bits& a, const Bits& b) noexcept {
    return a.n_bits_ == b.n_bits_ &&
           std::equal(a.word_data(), a.word_data() + a.word_count(),
                      b.word_data());
  }

 private:
  [[nodiscard]] bool is_inline() const noexcept {
    return n_bits_ <= kInlineBits;
  }

  /// Prepare storage for word_count() words (n_bits_ already set) and return
  /// the writable word array.
  std::uint64_t* init_storage() {
    if (is_inline()) {
      rep_.inline_words[0] = 0;
      rep_.inline_words[1] = 0;
      return rep_.inline_words;
    }
    rep_.heap = new std::uint64_t[word_count()];
    return rep_.heap;
  }

  void mask_tail(std::uint64_t* words) const noexcept {
    const std::size_t rem = n_bits_ % 64;
    if (n_bits_ != 0 && rem != 0) {
      words[word_count() - 1] &= ~std::uint64_t{0} >> (64 - rem);
    }
  }

  std::size_t n_bits_ = 0;
  union Rep {
    std::uint64_t inline_words[kInlineWords];
    std::uint64_t* heap;
  } rep_{};
};

/// Append-only bit sink. take() hands out the accumulated string and leaves
/// the writer empty but with its buffer capacity retained, so one writer can
/// serve a whole run's worth of messages without reallocating.
class BitWriter {
 public:
  /// Append the low `width` bits of `value` (LSB first). width in [0, 64];
  /// value must fit in `width` bits.
  void write_uint(std::uint64_t value, int width);

  /// Append one bit.
  void write_bit(bool b) { write_uint(b ? 1 : 0, 1); }

  /// Elias gamma code for v >= 1: floor(log2 v) zeros, then v's bits from MSB.
  /// Encodes arbitrary positive integers self-delimitingly in 2*floor(log2 v)+1
  /// bits.
  void write_gamma(std::uint64_t v);

  /// Gamma code shifted to accept zero (encodes v+1).
  void write_gamma0(std::uint64_t v) { write_gamma(v + 1); }

  /// Number of bits written so far.
  [[nodiscard]] std::size_t bit_count() const noexcept { return n_bits_; }

  /// Finish and return the accumulated bit string. The writer is reset and
  /// may be reused; its internal buffer keeps its capacity.
  [[nodiscard]] Bits take();

  /// Discard any pending bits (capacity retained).
  void reset() noexcept;

 private:
  std::vector<std::uint64_t> words_;
  std::size_t n_bits_ = 0;
};

/// Sequential reader over a Bits value. Throws wb::DataError on overrun, so a
/// decoder reading a corrupted whiteboard fails loudly instead of reading
/// garbage.
class BitReader {
 public:
  explicit BitReader(const Bits& bits) : bits_(&bits) {}

  /// Read a `width`-bit field (width in [0, 64]). The in-bounds read of 1
  /// to 63 bits is inline; every other width, and the overrun error, take
  /// the out-of-line path.
  [[nodiscard]] std::uint64_t read_uint(int width) {
    const auto w = static_cast<std::size_t>(width);
    if (width > 0 && width < 64 && pos_ + w <= bits_->size()) {
      const std::uint64_t* words = bits_->word_data();
      const std::size_t offset = pos_ % 64;
      std::uint64_t value = words[pos_ / 64] >> offset;
      if (offset + w > 64) value |= words[pos_ / 64 + 1] << (64 - offset);
      pos_ += w;
      return value & ((std::uint64_t{1} << width) - 1);
    }
    return read_uint_slow(width);
  }
  [[nodiscard]] bool read_bit() { return read_uint(1) != 0; }
  [[nodiscard]] std::uint64_t read_gamma();
  [[nodiscard]] std::uint64_t read_gamma0() { return read_gamma() - 1; }

  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bits_->size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  [[nodiscard]] std::uint64_t read_uint_slow(int width);

  const Bits* bits_;
  std::size_t pos_ = 0;
};

}  // namespace wb
