#include "workloads/sort.h"
#include "workloads/terasort.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace ipso::wl {
namespace {

// --- Sort

TEST(Sort, MapProducesSortedRun) {
  const auto run = sort_map("pear apple zebra mango");
  ASSERT_EQ(run.size(), 4u);
  EXPECT_TRUE(is_sorted_output(run));
  EXPECT_EQ(run.front(), "apple");
  EXPECT_EQ(run.back(), "zebra");
}

TEST(Sort, MergeOfSortedRunsIsSorted) {
  const std::vector<std::vector<std::string>> runs{
      {"a", "d", "g"}, {"b", "e"}, {"c", "f", "h"}};
  const auto merged = sort_merge(runs);
  ASSERT_EQ(merged.size(), 8u);
  EXPECT_TRUE(is_sorted_output(merged));
  EXPECT_EQ(merged.front(), "a");
  EXPECT_EQ(merged.back(), "h");
}

TEST(Sort, MergeHandlesEmptyRuns) {
  const std::vector<std::vector<std::string>> runs{{}, {"x"}, {}};
  const auto merged = sort_merge(runs);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], "x");
}

TEST(Sort, EndToEndIsPermutationAndSorted) {
  const Dictionary dict;
  std::vector<std::vector<std::string>> runs;
  std::vector<std::string> expected;
  for (std::uint64_t s = 0; s < 4; ++s) {
    const std::string shard = generate_text(dict, 42 + s, 3000);
    runs.push_back(sort_map(shard));
    const auto toks = tokenize(shard);
    expected.insert(expected.end(), toks.begin(), toks.end());
  }
  const auto out = sort_merge(runs);
  EXPECT_TRUE(is_sorted_output(out));
  // Permutation check: compare multisets via sort.
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(out, expected);
}

TEST(SortSpec, ForwardsAllBytes) {
  const auto spec = sort_spec();
  EXPECT_DOUBLE_EQ(spec.intermediate_bytes(128e6), 128e6);
  EXPECT_FALSE(spec.spill_enabled);
}

// --- TeraSort

TEST(TeraGen, DeterministicRecords) {
  const auto a = teragen(1, 100);
  const auto b = teragen(1, 100);
  EXPECT_EQ(a, b);
  EXPECT_NE(teragen(2, 100), a);
}

TEST(TeraSort, MapSortsByKey) {
  auto shard = teragen(3, 500);
  const auto sorted = terasort_map(shard);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
}

TEST(TeraSort, EndToEndSortedAndChecksumPreserved) {
  const std::size_t shards = 4, per_shard = 400;
  std::uint64_t checksum_in = 0;
  std::vector<std::vector<TeraRecord>> runs;
  for (std::size_t s = 0; s < shards; ++s) {
    auto shard = teragen(100 + s, per_shard);
    checksum_in ^= tera_checksum(shard);
    runs.push_back(terasort_map(std::move(shard)));
  }
  const auto out = terasort_merge(runs);
  ASSERT_EQ(out.size(), shards * per_shard);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(tera_checksum(out), checksum_in);
}

TEST(TeraSortSpec, SpillEnabledAndInProportion) {
  const auto spec = terasort_spec();
  EXPECT_TRUE(spec.spill_enabled);
  EXPECT_DOUBLE_EQ(spec.intermediate_ratio, 1.0);
}

TEST(TeraChecksum, PermutationInvariant) {
  auto records = teragen(5, 64);
  const auto before = tera_checksum(records);
  std::reverse(records.begin(), records.end());
  EXPECT_EQ(tera_checksum(records), before);
}

TEST(TeraChecksum, DetectsCorruption) {
  auto records = teragen(5, 64);
  const auto before = tera_checksum(records);
  records[10].payload[0] ^= 0xff;
  EXPECT_NE(tera_checksum(records), before);
}

}  // namespace
}  // namespace ipso::wl
