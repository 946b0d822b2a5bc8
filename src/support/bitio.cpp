#include "src/support/bitio.h"

#include "src/support/bits.h"

namespace wb {

void BitWriter::write_uint(std::uint64_t value, int width) {
  WB_CHECK(width >= 0 && width <= 64);
  if (width == 0) {
    WB_CHECK(value == 0);
    return;
  }
  if (width < 64) {
    WB_CHECK_MSG(value < (std::uint64_t{1} << width),
                 "value " << value << " does not fit in " << width << " bits");
  }
  const std::size_t word = n_bits_ / 64;
  const int offset = static_cast<int>(n_bits_ % 64);
  if (words_.size() <= word + 1) words_.resize(word + 2, 0);
  words_[word] |= value << offset;
  if (offset + width > 64) {
    words_[word + 1] |= value >> (64 - offset);
  }
  n_bits_ += static_cast<std::size_t>(width);
}

void BitWriter::write_gamma(std::uint64_t v) {
  WB_CHECK(v >= 1);
  const int len = floor_log2(v);
  write_uint(0, len);                       // len zeros
  write_uint(1, 1);                         // stop bit = MSB of v
  if (len > 0) {
    // Remaining len bits of v below the MSB, emitted LSB-first; the reader
    // reconstructs symmetrically.
    write_uint(v & ((std::uint64_t{1} << len) - 1), len);
  }
}

Bits BitWriter::take() {
  Bits out(words_.data(), n_bits_);
  reset();
  return out;
}

void BitWriter::reset() noexcept {
  // write_uint only ORs into words covered by n_bits_, so zeroing that prefix
  // restores the all-zero invariant the OR-accumulation relies on.
  std::fill_n(words_.begin(),
              std::min(words_.size(), (n_bits_ + 63) / 64), std::uint64_t{0});
  n_bits_ = 0;
}

std::uint64_t BitReader::read_uint_slow(int width) {
  WB_CHECK(width >= 0 && width <= 64);
  if (width == 0) return 0;
  WB_REQUIRE_MSG(pos_ + static_cast<std::size_t>(width) <= bits_->size(),
                 "bit stream overrun: need " << width << " bits at position "
                                             << pos_ << " of "
                                             << bits_->size());
  const std::uint64_t* words = bits_->word_data();
  const std::size_t word = pos_ / 64;
  const int offset = static_cast<int>(pos_ % 64);
  std::uint64_t value = words[word] >> offset;
  if (offset + width > 64) {
    value |= words[word + 1] << (64 - offset);
  }
  if (width < 64) value &= (std::uint64_t{1} << width) - 1;
  pos_ += static_cast<std::size_t>(width);
  return value;
}

std::uint64_t BitReader::read_gamma() {
  int len = 0;
  while (!read_bit()) {
    ++len;
    WB_REQUIRE_MSG(len <= 64, "malformed gamma code: too many leading zeros");
  }
  std::uint64_t low = (len > 0) ? read_uint(len) : 0;
  return (std::uint64_t{1} << len) | low;
}

}  // namespace wb
