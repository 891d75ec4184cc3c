#pragma once

#include "mapreduce/workload_spec.h"
#include "workloads/textgen.h"

#include <cstdint>
#include <map>
#include <string>

/// \file wordcount.h
/// WordCount: the HiBench micro-benchmark the paper measures in Fig. 4(b).
/// The functional kernel really counts words; each map task emits a
/// combiner-style histogram over the 1000-word dictionary, so the
/// intermediate data per task is (nearly) constant — which is exactly why
/// the paper measures IN(n) ~ 1 for WordCount (no in-proportion scaling).

namespace ipso::wl {

/// Word histogram: the map-side combiner output and the reduce-side state.
using WordHistogram = std::map<std::string, std::uint64_t>;

/// Counts words in one text shard (a real computation).
WordHistogram wordcount_map(const std::string& shard_text);

/// Merges `src` into `dst` (the single reducer's merge stage).
void wordcount_merge(WordHistogram& dst, const WordHistogram& src);

/// Serialized size in bytes of a histogram ("word\tcount\n" per entry) —
/// the measured intermediate-data volume of one map task.
double wordcount_histogram_bytes(const WordHistogram& h);

/// Total number of word occurrences in a histogram.
std::uint64_t wordcount_total(const WordHistogram& h);

/// Simulation cost model for WordCount, with the intermediate-data constant
/// calibrated by actually running the kernel on a sample shard.
mr::MrWorkloadSpec wordcount_spec();

}  // namespace ipso::wl
