#include "src/wb/distinct.h"

#include <algorithm>
#include <utility>

#include "src/support/check.h"

namespace wb {

DistinctConfig parse_distinct_config(const std::string& text) {
  if (text == "exact") return DistinctConfig::Exact();
  constexpr const char* kHll = "hll";
  if (text == kHll) return DistinctConfig::Hll();
  const std::string prefix = std::string(kHll) + ":";
  WB_REQUIRE_MSG(text.rfind(prefix, 0) == 0,
                 "bad distinct config '" << text
                                         << "' (want exact | hll | hll:P)");
  const std::string digits = text.substr(prefix.size());
  WB_REQUIRE_MSG(!digits.empty() &&
                     digits.find_first_not_of("0123456789") == std::string::npos &&
                     digits.size() <= 2,
                 "bad hll precision '" << digits << "' in '" << text << "'");
  const int precision = std::stoi(digits);
  WB_REQUIRE_MSG(precision >= HyperLogLog::kMinPrecision &&
                     precision <= HyperLogLog::kMaxPrecision,
                 "hll precision " << precision << " outside ["
                                  << HyperLogLog::kMinPrecision << ", "
                                  << HyperLogLog::kMaxPrecision << "]");
  return DistinctConfig::Hll(precision);
}

std::string to_string(const DistinctConfig& config) {
  if (config.kind == DistinctKind::kExact) return "exact";
  return "hll:" + std::to_string(config.hll_precision);
}

std::vector<Hash128> union_sorted_runs(
    std::span<const std::span<const Hash128>> runs) {
  // An exhausted run's head is a sentinel that loses every match: the
  // largest key. A run that ends in that key holds it back, and it is
  // emitted last, so no real key ever ties with the sentinel.
  static constexpr Hash128 kSentinel{~std::uint64_t{0}, ~std::uint64_t{0}};
  std::vector<const Hash128*> cur;
  std::vector<const Hash128*> end;
  std::size_t total = 0;
  bool has_sentinel_key = false;
  for (std::span<const Hash128> run : runs) {
    if (!run.empty() && run.back() == kSentinel) {
      has_sentinel_key = true;
      run = run.first(run.size() - 1);
    }
    if (run.empty()) continue;
    cur.push_back(run.data());
    end.push_back(run.data() + run.size());
    total += run.size();
  }
  std::vector<Hash128> merged;
  merged.reserve(total + (has_sentinel_key ? 1 : 0));
  const std::size_t k = cur.size();
  if (k == 1) {
    merged.assign(cur.front(), end.front());
  } else if (k > 1) {
    // Loser tree: run i is leaf k + i, internal node n (1 <= n < k) holds
    // the head key and run of the loser of the match played there, and
    // `top` is the overall winner. Emitting a key replays only the path
    // from the winner's leaf to the root: log2(k) comparisons per key,
    // each against a key held in the tree itself.
    struct Entry {
      Hash128 key;
      std::size_t run;
    };
    std::vector<Entry> loser(k);
    std::vector<Entry> winner(2 * k);
    for (std::size_t i = 0; i < k; ++i) winner[k + i] = {*cur[i], i};
    for (std::size_t n = k - 1; n >= 1; --n) {
      const Entry& a = winner[2 * n];
      const Entry& b = winner[2 * n + 1];
      const bool b_wins = b.key < a.key;
      winner[n] = b_wins ? b : a;
      loser[n] = b_wins ? a : b;
    }
    Entry top = winner[1];
    for (std::size_t emitted = 0; emitted < total; ++emitted) {
      if (merged.empty() || merged.back() != top.key) {
        merged.push_back(top.key);
      }
      const std::size_t r = top.run;
      top.key = ++cur[r] == end[r] ? kSentinel : *cur[r];
      for (std::size_t n = (k + r) / 2; n >= 1; n /= 2) {
        if (loser[n].key < top.key) std::swap(loser[n], top);
      }
    }
  }
  if (has_sentinel_key) merged.push_back(kSentinel);
  return merged;
}

namespace {

void sort_unique(std::vector<Hash128>& keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

}  // namespace

ExactDistinctAccumulator ExactDistinctAccumulator::from_sorted(
    std::vector<Hash128> sorted_run) {
  ExactDistinctAccumulator acc;
  acc.run_ = std::move(sorted_run);
  return acc;
}

void ExactDistinctAccumulator::merge(DistinctAccumulator&& other) {
  WB_CHECK_MSG(other.config().kind == DistinctKind::kExact,
               "cannot merge a " << to_string(other.config())
                                 << " accumulator into an exact one");
  auto& exact = static_cast<ExactDistinctAccumulator&>(other);
  if (!exact.buffer_.empty()) {
    unsorted_.push_back(std::exchange(exact.buffer_, {}));
  }
  for (std::vector<Hash128>& keys : exact.unsorted_) {
    unsorted_.push_back(std::move(keys));
  }
  exact.unsorted_.clear();
  if (!exact.run_.empty()) {
    pending_keys_ += exact.run_.size();
    runs_.push_back(std::exchange(exact.run_, {}));
  }
  for (std::vector<Hash128>& run : exact.runs_) runs_.push_back(std::move(run));
  exact.runs_.clear();
  pending_keys_ += std::exchange(exact.pending_keys_, 0);
}

std::vector<Hash128> ExactDistinctAccumulator::take_sorted() {
  fold();
  return std::exchange(run_, {});
}

void ExactDistinctAccumulator::flush() {
  sort_unique(buffer_);
  pending_keys_ += buffer_.size();
  runs_.push_back(std::exchange(buffer_, {}));
  if (pending_keys_ > run_.size()) fold();
}

void ExactDistinctAccumulator::fold() {
  if (!buffer_.empty()) unsorted_.push_back(std::exchange(buffer_, {}));
  for (std::vector<Hash128>& keys : unsorted_) {
    sort_unique(keys);
    runs_.push_back(std::move(keys));
  }
  unsorted_.clear();
  if (run_.empty() && runs_.size() == 1) {
    run_ = std::move(runs_.front());
  } else if (!runs_.empty()) {
    std::vector<std::span<const Hash128>> spans{run_};
    spans.insert(spans.end(), runs_.begin(), runs_.end());
    run_ = union_sorted_runs(spans);
  }
  runs_.clear();
  pending_keys_ = 0;
}

void HllDistinctAccumulator::merge(DistinctAccumulator&& other) {
  WB_CHECK_MSG(other.config() == config(),
               "cannot merge a " << to_string(other.config())
                                 << " accumulator into a "
                                 << to_string(config()) << " one");
  sketch_.merge(static_cast<HllDistinctAccumulator&>(other).sketch_);
}

std::unique_ptr<DistinctAccumulator> make_distinct_accumulator(
    const DistinctConfig& config) {
  if (config.kind == DistinctKind::kExact) {
    return std::make_unique<ExactDistinctAccumulator>();
  }
  return std::make_unique<HllDistinctAccumulator>(config.hll_precision);
}

}  // namespace wb
