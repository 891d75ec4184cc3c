#pragma once

#include "store/io.h"
#include "store/segment.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

/// \file disk_tier.h
/// Tier 1 of the fit store: cold READY outcomes on disk, as append-only
/// checksummed segments (segment.h) published through an atomically
/// renamed manifest. One DiskTier owns one directory:
///
///   <dir>/MANIFEST          text: format line + ordered segment list
///   <dir>/seg-000001.seg    append-only record segments; the last listed
///   ...                     one is the active (appendable) segment
///
/// Crash-safety invariants:
///  * a segment is named in the manifest *before* its first byte exists, so
///    a crash between the two leaves a listed-but-missing (or empty) file,
///    which recovery treats as zero records — never an error;
///  * the manifest is replaced via temp-file + fsync + rename + directory
///    fsync (io.h), so it is always either the old or the new list;
///  * appends are synced on flush()/rotation, not per record — a crash
///    loses at most the unsynced tail, which the next open() detects as a
///    truncated record and skips with a counter.
///
/// The in-memory index maps key *hashes* to record locations (a canonical
/// fit key embeds whole observation series, so resident full keys would
/// dwarf the index); every get() re-reads the record and compares the full
/// key byte-for-byte, so hash collisions cost one extra read, never a
/// wrong answer.
///
/// Not internally synchronized: the owner (TieredStore) serializes access.

namespace ipso::store {

struct DiskTierConfig {
  std::string dir;
  /// Active segment is sealed and a fresh one started past this size.
  std::uint64_t max_segment_bytes = 4ull << 20;
};

/// Monotonic counters + current sizes. `skipped_*`/`truncated`/
/// `bad_segments` accumulate over every recovery scan this process ran.
struct DiskTierStats {
  std::size_t records = 0;      ///< live index entries
  std::size_t segments = 0;     ///< files listed in the manifest
  std::uint64_t bytes = 0;      ///< on-disk record bytes (incl. headers)
  std::size_t appended = 0;     ///< put() writes
  std::size_t duplicates = 0;   ///< put() calls deduplicated away
  std::size_t recovered = 0;    ///< records restored by open()
  std::size_t skipped_checksum = 0;
  std::size_t skipped_version = 0;
  std::size_t truncated = 0;
  std::size_t bad_segments = 0;
  std::size_t read_errors = 0;  ///< get() decode/IO failures

  [[nodiscard]] std::size_t skipped_total() const noexcept {
    return skipped_checksum + skipped_version + truncated + bad_segments;
  }
};

class DiskTier {
 public:
  explicit DiskTier(DiskTierConfig cfg);

  /// Creates the directory/manifest if absent, scans every listed segment
  /// and rebuilds the index. Corrupted or version-mismatched records are
  /// counted and skipped, never an error; only real I/O failures (e.g. an
  /// unwritable directory) fail the open.
  [[nodiscard]] IoStatus open();

  [[nodiscard]] bool is_open() const noexcept { return open_; }

  /// Exact-match lookup; reads the record back from its segment and
  /// verifies the full key. nullopt on absence or any read/decode failure
  /// (counted in read_errors).
  [[nodiscard]] std::optional<std::string> get(const std::string& key);

  /// Appends (key, value) to the active segment, deduplicating on key
  /// (values are a deterministic function of the key, so the first record
  /// wins and repeats are dropped).
  [[nodiscard]] IoStatus put(const std::string& key, std::string_view value);

  /// fsyncs the active segment (the manifest is always already durable).
  [[nodiscard]] IoStatus flush();

  [[nodiscard]] const DiskTierStats& stats() const noexcept { return stats_; }

 private:
  struct Location {
    std::uint32_t segment = 0;  ///< index into segment_files_
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
  };

  [[nodiscard]] std::string segment_path(const std::string& name) const;
  [[nodiscard]] std::string next_segment_name();
  [[nodiscard]] IoStatus write_manifest();
  [[nodiscard]] IoStatus start_segment();  ///< manifest first, then file
  /// Reads + verifies the record at `loc`; nullopt on mismatch.
  [[nodiscard]] std::optional<std::string> read_record(
      const Location& loc, const std::string& expect_key);

  DiskTierConfig cfg_;
  bool open_ = false;
  std::uint64_t next_segment_id_ = 1;
  std::vector<std::string> segment_files_;  ///< manifest order
  AppendFile active_;
  std::unordered_map<std::uint64_t, std::vector<Location>> index_;
  DiskTierStats stats_;
};

}  // namespace ipso::store
