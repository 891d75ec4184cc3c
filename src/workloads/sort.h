#pragma once

#include "mapreduce/workload_spec.h"
#include "workloads/textgen.h"

#include <cstdint>
#include <string>
#include <vector>

/// \file sort.h
/// Sort: HiBench's text sort (paper Fig. 4(c)). Every input byte flows to
/// the single reducer (intermediate ratio ~1), so the merge workload grows
/// linearly with the total data — the in-proportion scaling that gives Sort
/// its IIIt,1 bounded speedup (measured IN(n) = 0.36·n - 0.11 in the paper).
/// The functional kernel is a real external-sort: map tasks sort their
/// shards into runs, the reducer k-way merges the runs.

namespace ipso::wl {

/// One map task: tokenizes the shard and sorts the words (a sorted run).
std::vector<std::string> sort_map(const std::string& shard_text);

/// Reducer: k-way merge of sorted runs into one sorted sequence.
std::vector<std::string> sort_merge(
    const std::vector<std::vector<std::string>>& runs);

/// True when `words` is in non-decreasing order.
bool is_sorted_output(const std::vector<std::string>& words);

/// Simulation cost model for Sort, calibrated so IN(n) has slope ~0.36
/// (paper Fig. 6). See DESIGN.md for the derivation of the constants.
mr::MrWorkloadSpec sort_spec();

}  // namespace ipso::wl
