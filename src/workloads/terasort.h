#pragma once

#include "mapreduce/workload_spec.h"
#include "stats/random.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

/// \file terasort.h
/// TeraSort (paper Fig. 4(d), Fig. 5): TeraGen-style 100-byte records with
/// 10-byte keys, local sort in the map phase and a merging reducer. All data flows to the merge phase
/// (in-proportion IN(n)), and the binary intermediate overflows the ~2 GB
/// reducer memory at n ~ 15, producing the step-wise IN(n) of Fig. 5.

namespace ipso::wl {

/// A TeraGen record: 10-byte key + 90-byte payload.
struct TeraRecord {
  std::array<std::uint8_t, 10> key{};
  std::array<std::uint8_t, 90> payload{};

  friend bool operator<(const TeraRecord& a, const TeraRecord& b) noexcept {
    return a.key < b.key;
  }
  friend bool operator==(const TeraRecord& a, const TeraRecord& b) noexcept {
    return a.key == b.key && a.payload == b.payload;
  }
};

/// Generates `count` deterministic TeraGen records.
std::vector<TeraRecord> teragen(std::uint64_t seed, std::size_t count);

/// Map task: locally sorts one shard of records.
std::vector<TeraRecord> terasort_map(std::vector<TeraRecord> shard);

/// Reducer: k-way merge of sorted runs.
std::vector<TeraRecord> terasort_merge(
    const std::vector<std::vector<TeraRecord>>& runs);

/// XOR-fold checksum over records; invariant under permutation, used to
/// verify the sort is a permutation of its input.
std::uint64_t tera_checksum(const std::vector<TeraRecord>& records);

/// Simulation cost model for TeraSort, calibrated to the paper's measured
/// IN(n): slope ~0.15 before the reducer-memory overflow at n ~ 15, ~0.25
/// after (Fig. 5), speedup bound ~3 (Fig. 4(d)). Spill is enabled.
mr::MrWorkloadSpec terasort_spec();

}  // namespace ipso::wl
