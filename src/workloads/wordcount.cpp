#include "workloads/wordcount.h"

namespace ipso::wl {

WordHistogram wordcount_map(const std::string& shard_text) {
  WordHistogram h;
  std::size_t i = 0;
  while (i < shard_text.size()) {
    while (i < shard_text.size() && shard_text[i] == ' ') ++i;
    std::size_t j = i;
    while (j < shard_text.size() && shard_text[j] != ' ') ++j;
    if (j > i) ++h[shard_text.substr(i, j - i)];
    i = j;
  }
  return h;
}

void wordcount_merge(WordHistogram& dst, const WordHistogram& src) {
  for (const auto& [word, count] : src) dst[word] += count;
}

double wordcount_histogram_bytes(const WordHistogram& h) {
  double bytes = 0.0;
  for (const auto& [word, count] : h) {
    bytes += static_cast<double>(word.size()) + 1.0;  // word + tab
    // Decimal digits of the count + newline.
    std::uint64_t c = count;
    double digits = 1.0;
    while (c >= 10) {
      c /= 10;
      digits += 1.0;
    }
    bytes += digits + 1.0;
  }
  return bytes;
}

std::uint64_t wordcount_total(const WordHistogram& h) {
  std::uint64_t total = 0;
  for (const auto& [_, count] : h) total += count;
  return total;
}

mr::MrWorkloadSpec wordcount_spec() {
  // Calibrate the per-task intermediate volume by really counting a sample
  // shard: a combiner histogram over a 1000-word dictionary is ~constant
  // regardless of the shard size (every shard saturates the dictionary).
  static const double kHistogramBytes = [] {
    const Dictionary dict;
    const std::string sample = generate_text(dict, /*seed=*/7, 1 << 18);
    return wordcount_histogram_bytes(wordcount_map(sample));
  }();

  mr::MrWorkloadSpec spec;
  spec.name = "WordCount";
  // Tokenize + hash + combine: ~8 abstract ops per input byte.
  spec.map_ops_per_byte = 8.0;
  // Combiner output: constant histogram, no per-byte component.
  spec.intermediate_ratio = 0.0;
  spec.fixed_intermediate_bytes = kHistogramBytes;
  spec.merge_ops_per_byte = 1.0;
  // Final result write + job commit: the ~1 s constant that dominates the
  // serial phase and keeps IN(n) ~ 1.
  spec.fixed_reduce_ops = 1e8;
  spec.spill_enabled = false;  // kilobyte-scale intermediate data never spills
  return spec;
}

}  // namespace ipso::wl
