// The DistinctAccumulator surface: config grammar, factory dispatch, the
// exact accumulator and the k-way run union against a sorted-unique
// reference, and the cross-kind merge guard.
#include "src/wb/distinct.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "src/support/check.h"

namespace wb {
namespace {

Hash128 key_of(std::uint64_t i) {
  const std::uint64_t lo = mix64(i + 1);
  return Hash128{lo, mix64(lo)};
}

std::vector<Hash128> sorted_unique(std::vector<Hash128> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

TEST(DistinctConfig, ParsesAndFormatsCanonically) {
  EXPECT_EQ(parse_distinct_config("exact"), DistinctConfig::Exact());
  EXPECT_EQ(parse_distinct_config("hll"), DistinctConfig::Hll());
  EXPECT_EQ(parse_distinct_config("hll:8"), DistinctConfig::Hll(8));
  EXPECT_EQ(parse_distinct_config("hll:18"), DistinctConfig::Hll(18));

  EXPECT_EQ(to_string(DistinctConfig::Exact()), "exact");
  EXPECT_EQ(to_string(DistinctConfig::Hll(14)), "hll:14");
  for (const char* text : {"exact", "hll:4", "hll:14", "hll:18"}) {
    EXPECT_EQ(to_string(parse_distinct_config(text)), text) << text;
  }
  // The bare "hll" normalizes to the default precision.
  EXPECT_EQ(to_string(parse_distinct_config("hll")),
            "hll:" + std::to_string(DistinctConfig::kDefaultHllPrecision));
}

TEST(DistinctConfig, ExactEqualityIgnoresTheMeaninglessPrecisionField) {
  // Precision is hll-only; two exact configs must compare equal no matter
  // what the field holds (a round-trip through text resets it to the
  // default, and merge validation compares configs).
  const DistinctConfig a{DistinctKind::kExact, 12};
  EXPECT_EQ(a, DistinctConfig::Exact());
  EXPECT_EQ(parse_distinct_config(to_string(a)), a);
  EXPECT_NE(DistinctConfig::Hll(12), DistinctConfig::Hll(14));
  EXPECT_NE(DistinctConfig::Exact(), DistinctConfig::Hll());
}

TEST(DistinctConfig, RejectsMalformedSpecs) {
  for (const char* text :
       {"", "Exact", "exactly", "hhl", "hll:", "hll:x", "hll:3", "hll:19",
        "hll:014", "hll:140", "hll:14:2", "exact:4"}) {
    EXPECT_THROW((void)parse_distinct_config(text), DataError) << text;
  }
}

TEST(DistinctAccumulator, FactoryDispatchesOnKind) {
  const auto exact = make_distinct_accumulator(DistinctConfig::Exact());
  EXPECT_EQ(exact->config(), DistinctConfig::Exact());
  const auto hll = make_distinct_accumulator(DistinctConfig::Hll(9));
  EXPECT_EQ(hll->config(), DistinctConfig::Hll(9));
}

TEST(DistinctAccumulator, ExactMatchesTheRawSortedRunMachinery) {
  // The accumulator against a plain sort + unique of the same keys. Enough
  // inserts to flush the buffer several times, so pending runs are
  // folded both by the geometric trigger and by the final take.
  std::vector<Hash128> keys;
  for (std::uint64_t i = 0; i < 300'000; ++i) {
    keys.push_back(key_of(i % 170'000));  // duplicates on purpose
  }
  ExactDistinctAccumulator acc;
  for (const Hash128& k : keys) acc.insert(k);
  EXPECT_EQ(acc.estimate(), 170'000u);
  EXPECT_EQ(acc.take_sorted(), sorted_unique(keys));
  EXPECT_EQ(acc.estimate(), 0u);
}

TEST(DistinctAccumulator, ExactMergeIsOrderObliviousAndExact) {
  constexpr std::size_t kParts = 5;
  std::vector<std::unique_ptr<DistinctAccumulator>> parts;
  for (std::size_t k = 0; k < kParts; ++k) {
    parts.push_back(make_distinct_accumulator(DistinctConfig::Exact()));
  }
  ExactDistinctAccumulator whole;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    const Hash128 k = key_of(i % 4'096);
    whole.insert(k);
    parts[i % kParts]->insert(k);
  }
  std::mt19937 rng(0xABBA);
  std::shuffle(parts.begin(), parts.end(), rng);
  std::unique_ptr<DistinctAccumulator> total = std::move(parts.front());
  for (std::size_t k = 1; k < kParts; ++k) {
    total->merge(std::move(*parts[k]));
  }
  EXPECT_EQ(total->estimate(), 4'096u);
  EXPECT_EQ(static_cast<ExactDistinctAccumulator&>(*total).take_sorted(),
            whole.take_sorted());
}

TEST(DistinctAccumulator, HllMergeMatchesSingleStream) {
  auto whole = make_distinct_accumulator(DistinctConfig::Hll(12));
  auto left = make_distinct_accumulator(DistinctConfig::Hll(12));
  auto right = make_distinct_accumulator(DistinctConfig::Hll(12));
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    const Hash128 k = key_of(i);
    whole->insert(k);
    (i % 2 == 0 ? left : right)->insert(k);
  }
  left->merge(std::move(*right));
  EXPECT_EQ(left->estimate(), whole->estimate());
  EXPECT_EQ(static_cast<HllDistinctAccumulator&>(*left).sketch(),
            static_cast<HllDistinctAccumulator&>(*whole).sketch());
}

TEST(DistinctAccumulator, MixedKindMergeIsALogicError) {
  auto exact = make_distinct_accumulator(DistinctConfig::Exact());
  auto hll = make_distinct_accumulator(DistinctConfig::Hll());
  EXPECT_THROW(exact->merge(std::move(*hll)), LogicError);
  auto hll2 = make_distinct_accumulator(DistinctConfig::Hll());
  auto exact2 = make_distinct_accumulator(DistinctConfig::Exact());
  EXPECT_THROW(hll2->merge(std::move(*exact2)), LogicError);
  // Same kind, different precision: also refused.
  auto p12 = make_distinct_accumulator(DistinctConfig::Hll(12));
  auto p14 = make_distinct_accumulator(DistinctConfig::Hll(14));
  EXPECT_THROW(p12->merge(std::move(*p14)), LogicError);
}

TEST(DistinctAccumulator, FromSortedAdoptsARunWithoutRecounting) {
  std::vector<Hash128> run = {key_of(1), key_of(2), key_of(3)};
  std::sort(run.begin(), run.end());
  ExactDistinctAccumulator acc = ExactDistinctAccumulator::from_sorted(run);
  EXPECT_EQ(acc.estimate(), 3u);
  acc.insert(run.front());  // duplicate: no change
  EXPECT_EQ(acc.estimate(), 3u);
  acc.insert(key_of(99));
  EXPECT_EQ(acc.estimate(), 4u);
}

TEST(UnionSortedRuns, EmptyAndSingleRuns) {
  const std::vector<Hash128> run =
      sorted_unique({key_of(5), key_of(1), key_of(9), key_of(3)});
  const std::span<const Hash128> none;
  EXPECT_TRUE(union_sorted_runs({}).empty());
  {
    const std::vector<std::span<const Hash128>> runs{none, none};
    EXPECT_TRUE(union_sorted_runs(runs).empty());
  }
  {
    const std::vector<std::span<const Hash128>> runs{run};
    EXPECT_EQ(union_sorted_runs(runs), run);
  }
  {
    const std::vector<std::span<const Hash128>> runs{none, run, none};
    EXPECT_EQ(union_sorted_runs(runs), run);
  }
  {
    const std::vector<std::span<const Hash128>> runs{run, run, run};
    EXPECT_EQ(union_sorted_runs(runs), run);
  }
}

TEST(UnionSortedRuns, TheLargestKeyIsKeptOnce) {
  // The all-ones key is the value an exhausted run reads as; as a real key
  // it must still come out exactly once, last.
  const Hash128 largest{~std::uint64_t{0}, ~std::uint64_t{0}};
  const std::vector<Hash128> a = sorted_unique({key_of(1), key_of(2), largest});
  const std::vector<Hash128> b = {largest};
  const std::vector<Hash128> c = sorted_unique({key_of(2), key_of(3)});
  const std::vector<std::span<const Hash128>> runs{a, b, c, b};
  EXPECT_EQ(union_sorted_runs(runs),
            sorted_unique({key_of(1), key_of(2), key_of(3), largest}));

  ExactDistinctAccumulator acc;
  acc.insert(largest);
  ExactDistinctAccumulator other;
  other.insert(largest);
  other.insert(key_of(7));
  acc.merge(std::move(other));
  EXPECT_EQ(acc.take_sorted(), sorted_unique({key_of(7), largest}));
}

TEST(UnionSortedRuns, MatchesASortedUniqueReference) {
  std::mt19937_64 rng(0x5EED);
  for (const std::size_t k : {2, 3, 7, 90, 257}) {
    std::vector<std::vector<Hash128>> runs(k);
    std::vector<Hash128> all;
    for (std::vector<Hash128>& run : runs) {
      const std::size_t size = rng() % 400;  // some runs come out empty
      for (std::size_t i = 0; i < size; ++i) run.push_back(key_of(rng() % 5'000));
      run = sorted_unique(std::move(run));
      all.insert(all.end(), run.begin(), run.end());
    }
    const std::vector<std::span<const Hash128>> spans(runs.begin(), runs.end());
    EXPECT_EQ(union_sorted_runs(spans), sorted_unique(all)) << "k=" << k;
  }
}

// One seeded scenario of the exact accumulator's merge paths: K parts, each
// either empty, inserted, adopted from a sorted run, or a run plus inserts;
// duplicates within and across parts; some parts asked for their count
// before being merged (what a traced sweep does per task); parts merged in
// shuffled order, partly into intermediate groups that are merged in turn.
void check_exact_merge_scenario(std::size_t k, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "K=" << k << " seed=" << seed);
  std::mt19937_64 rng(seed);
  const std::uint64_t universe = 1 + rng() % 60'000;
  std::vector<Hash128> all;
  std::vector<std::unique_ptr<DistinctAccumulator>> parts;
  for (std::size_t p = 0; p < k; ++p) {
    std::vector<Hash128> keys;
    std::size_t size = rng() % 4 == 0 ? 0 : rng() % 3'000;
    if (p == 0 && k <= 7) size = 100'000;  // forces buffer flushes
    for (std::size_t i = 0; i < size; ++i) keys.push_back(key_of(rng() % universe));
    all.insert(all.end(), keys.begin(), keys.end());

    std::unique_ptr<ExactDistinctAccumulator> acc;
    const std::size_t adopted = rng() % 3 == 0 ? keys.size() / (1 + rng() % 2) : 0;
    if (adopted > 0) {
      acc = std::make_unique<ExactDistinctAccumulator>(
          ExactDistinctAccumulator::from_sorted(sorted_unique(
              std::vector<Hash128>(keys.begin(), keys.begin() + adopted))));
    } else {
      acc = std::make_unique<ExactDistinctAccumulator>();
    }
    for (std::size_t i = adopted; i < keys.size(); ++i) acc->insert(keys[i]);
    if (rng() % 2 == 0) {
      EXPECT_EQ(acc->estimate(), sorted_unique(keys).size());
    }
    parts.push_back(std::move(acc));
  }
  std::shuffle(parts.begin(), parts.end(), rng);

  // Merge runs of consecutive parts into groups, then the groups together.
  std::vector<std::unique_ptr<DistinctAccumulator>> groups;
  for (std::size_t p = 0; p < parts.size();) {
    const std::size_t end = std::min(parts.size(), p + 1 + rng() % 5);
    std::unique_ptr<DistinctAccumulator> group = std::move(parts[p]);
    for (++p; p < end; ++p) group->merge(std::move(*parts[p]));
    groups.push_back(std::move(group));
  }
  std::shuffle(groups.begin(), groups.end(), rng);
  auto total = make_distinct_accumulator(DistinctConfig::Exact());
  for (auto& group : groups) total->merge(std::move(*group));

  const std::vector<Hash128> reference = sorted_unique(all);
  EXPECT_EQ(total->estimate(), reference.size());
  auto& exact = static_cast<ExactDistinctAccumulator&>(*total);
  EXPECT_EQ(exact.take_sorted(), reference);
  EXPECT_EQ(exact.estimate(), 0u);
  // The drained parts hold nothing: each merge consumed its argument.
  for (auto& group : groups) EXPECT_EQ(group->estimate(), 0u);
}

TEST(DistinctAccumulator, ExactMergeDifferentialAcrossSeeds) {
  for (const std::size_t k : {1, 2, 7, 90}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      check_exact_merge_scenario(k, seed * 0x9E3779B97F4A7C15ULL + k);
    }
  }
}

TEST(DistinctAccumulator, ExactMergeIntoAnAccumulatorWithInserts) {
  // The receiving side also keeps its own buffer, runs and consolidated
  // run; inserts after a merge land beside the adopted keys.
  ExactDistinctAccumulator total;
  std::vector<Hash128> all;
  for (std::uint64_t i = 0; i < 70'000; ++i) {
    total.insert(key_of(i));
    all.push_back(key_of(i));
  }
  ExactDistinctAccumulator other;
  for (std::uint64_t i = 50'000; i < 90'000; ++i) {
    other.insert(key_of(i));
    all.push_back(key_of(i));
  }
  total.merge(std::move(other));
  for (std::uint64_t i = 85'000; i < 95'000; ++i) {
    total.insert(key_of(i));
    all.push_back(key_of(i));
  }
  EXPECT_EQ(total.estimate(), 95'000u);
  EXPECT_EQ(total.take_sorted(), sorted_unique(all));
}

}  // namespace
}  // namespace wb
