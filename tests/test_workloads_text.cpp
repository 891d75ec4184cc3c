#include "workloads/textgen.h"
#include "workloads/wordcount.h"

#include <gtest/gtest.h>

#include <set>

namespace ipso::wl {
namespace {

TEST(Dictionary, HasExactlyThousandDistinctWords) {
  const Dictionary dict;
  ASSERT_EQ(dict.size(), 1000u);
  std::set<std::string> unique(dict.words().begin(), dict.words().end());
  EXPECT_EQ(unique.size(), 1000u);
}

TEST(Dictionary, IsDeterministic) {
  const Dictionary a, b;
  EXPECT_EQ(a.words(), b.words());
}

TEST(Dictionary, WordLengthsInRange) {
  const Dictionary dict;
  for (const auto& w : dict.words()) {
    EXPECT_GE(w.size(), 3u);
    EXPECT_LE(w.size(), 12u);
  }
}

TEST(Zipf, SamplesWithinRange) {
  ZipfSampler zipf(100);
  stats::Rng rng(1);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.sample(rng), 100u);
}

TEST(Zipf, LowRanksDominate) {
  ZipfSampler zipf(1000);
  stats::Rng rng(2);
  std::size_t top10 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (zipf.sample(rng) < 10) ++top10;
  }
  // Zipf(1) over 1000 ranks: P(rank < 10) ~ H(10)/H(1000) ~ 0.39.
  EXPECT_GT(top10, n * 3 / 10);
  EXPECT_LT(top10, n / 2);
}

TEST(TextGen, ProducesRequestedVolume) {
  const Dictionary dict;
  const std::string text = generate_text(dict, 1, 10000);
  EXPECT_GE(text.size(), 10000u);
  EXPECT_LT(text.size(), 10020u);  // overshoot bounded by one word
}

TEST(TextGen, DeterministicPerSeed) {
  const Dictionary dict;
  EXPECT_EQ(generate_text(dict, 5, 1000), generate_text(dict, 5, 1000));
  EXPECT_NE(generate_text(dict, 5, 1000), generate_text(dict, 6, 1000));
}

TEST(TextGen, AllTokensAreDictionaryWords) {
  const Dictionary dict;
  const std::set<std::string> vocab(dict.words().begin(), dict.words().end());
  for (const auto& tok : tokenize(generate_text(dict, 7, 5000))) {
    EXPECT_TRUE(vocab.count(tok)) << tok;
  }
}

TEST(Tokenize, HandlesEdgeCases) {
  EXPECT_TRUE(tokenize("").empty());
  EXPECT_TRUE(tokenize("   ").empty());
  const auto toks = tokenize("  a bb  ccc ");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0], "a");
  EXPECT_EQ(toks[2], "ccc");
}

TEST(WordCount, CountsKnownText) {
  const auto h = wordcount_map("apple bee apple cat bee apple");
  EXPECT_EQ(h.at("apple"), 3u);
  EXPECT_EQ(h.at("bee"), 2u);
  EXPECT_EQ(h.at("cat"), 1u);
  EXPECT_EQ(h.size(), 3u);
}

TEST(WordCount, MergePreservesTotals) {
  WordHistogram a = wordcount_map("x y x");
  const WordHistogram b = wordcount_map("y z");
  wordcount_merge(a, b);
  EXPECT_EQ(a.at("x"), 2u);
  EXPECT_EQ(a.at("y"), 2u);
  EXPECT_EQ(a.at("z"), 1u);
}

TEST(WordCount, ShardedRunMatchesSingleRun) {
  const Dictionary dict;
  // Counting 4 shards separately and merging must equal counting their
  // concatenation.
  WordHistogram merged;
  std::string whole;
  for (std::uint64_t s = 0; s < 4; ++s) {
    const std::string shard = generate_text(dict, 11 + s, 2000);
    wordcount_merge(merged, wordcount_map(shard));
    whole += shard + " ";
  }
  EXPECT_EQ(merged, wordcount_map(whole));
}

TEST(WordCount, TotalMatchesTokenCount) {
  const Dictionary dict;
  const std::string text = generate_text(dict, 3, 4000);
  EXPECT_EQ(wordcount_total(wordcount_map(text)), tokenize(text).size());
}

TEST(WordCount, HistogramBytesArePositiveAndBounded) {
  const Dictionary dict;
  const auto h = wordcount_map(generate_text(dict, 9, 1 << 18));
  const double bytes = wordcount_histogram_bytes(h);
  EXPECT_GT(bytes, 1000.0);
  EXPECT_LT(bytes, 64e3);  // ~1000 entries, tens of bytes each
}

TEST(WordCountSpec, IntermediateIsShardSizeIndependent) {
  const auto spec = wordcount_spec();
  EXPECT_DOUBLE_EQ(spec.intermediate_bytes(64e6),
                   spec.intermediate_bytes(256e6));
  EXPECT_GT(spec.fixed_intermediate_bytes, 0.0);
  EXPECT_FALSE(spec.spill_enabled);
}

}  // namespace
}  // namespace ipso::wl
