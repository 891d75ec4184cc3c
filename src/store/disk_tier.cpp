#include "store/disk_tier.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace ipso::store {

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestHeader[] = "ipso-store-manifest 1";

/// Manifest lines are "segment <name>"; anything else is ignored so a
/// future manifest version can add directives without breaking this reader.
constexpr char kSegmentLinePrefix[] = "segment ";

}  // namespace

DiskTier::DiskTier(DiskTierConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.max_segment_bytes =
      std::max<std::uint64_t>(cfg_.max_segment_bytes, kSegmentHeaderBytes * 2);
}

std::string DiskTier::segment_path(const std::string& name) const {
  return cfg_.dir + "/" + name;
}

std::string DiskTier::next_segment_name() {
  char buf[32];
  std::snprintf(buf, sizeof buf, "seg-%06llu.seg",
                static_cast<unsigned long long>(next_segment_id_));
  ++next_segment_id_;
  return buf;
}

IoStatus DiskTier::write_manifest() {
  std::string body = kManifestHeader;
  body.push_back('\n');
  for (const auto& name : segment_files_) {
    body += kSegmentLinePrefix;
    body += name;
    body.push_back('\n');
  }
  return atomic_write_file(cfg_.dir + "/" + kManifestName, body);
}

IoStatus DiskTier::start_segment() {
  // Manifest first: a crash after the rename but before the segment file
  // exists leaves a listed-but-empty segment, which recovery treats as
  // zero records. The reverse order would strand an unreachable file.
  segment_files_.push_back(next_segment_name());
  if (auto st = write_manifest(); !st) {
    segment_files_.pop_back();
    return st;
  }
  auto file = AppendFile::open(segment_path(segment_files_.back()));
  if (!file.has_value()) return IoStatus::failure(file.error().message);
  active_ = std::move(*file);
  if (active_.size() == 0) {
    if (auto st = active_.append(segment_header()); !st) return st;
  }
  stats_.segments = segment_files_.size();
  return {};
}

IoStatus DiskTier::open() {
  if (open_) return {};
  if (auto st = make_dirs(cfg_.dir); !st) return st;

  const std::string manifest_path = cfg_.dir + "/" + kManifestName;
  if (file_exists(manifest_path)) {
    auto contents = read_file(manifest_path);
    if (!contents.has_value()) {
      return IoStatus::failure(contents.error().message);
    }
    // Parse the segment list (unknown lines ignored, see kSegmentLinePrefix).
    std::string_view rest = *contents;
    while (!rest.empty()) {
      const std::size_t nl = rest.find('\n');
      std::string_view line = rest.substr(0, nl);
      rest = nl == std::string_view::npos ? std::string_view{}
                                          : rest.substr(nl + 1);
      if (line.rfind(kSegmentLinePrefix, 0) == 0) {
        segment_files_.emplace_back(
            line.substr(sizeof kSegmentLinePrefix - 1));
      }
    }
  }

  // Rebuild the index from every listed segment. A listed-but-missing or
  // empty file is a crash artifact of start_segment(), not an error.
  for (std::size_t i = 0; i < segment_files_.size(); ++i) {
    const std::string path = segment_path(segment_files_[i]);
    if (!file_exists(path) || file_size(path) == 0) continue;
    auto bytes = read_file(path);
    if (!bytes.has_value()) return IoStatus::failure(bytes.error().message);
    const ScanStats scan = scan_segment(*bytes, [&](const ScannedRecord& r) {
      const std::uint64_t h = fnv1a64(r.key);
      auto& slots = index_[h];
      // Same key twice (e.g. re-spilled across restarts): first wins —
      // values are a deterministic function of the key.
      for (const Location& loc : slots) {
        if (loc.length == r.length) {
          auto existing = read_record(loc, std::string(r.key));
          if (existing.has_value()) {
            ++stats_.duplicates;
            return;
          }
        }
      }
      slots.push_back(Location{static_cast<std::uint32_t>(i), r.offset,
                               r.length});
      ++stats_.recovered;
    });
    stats_.skipped_checksum += scan.skipped_checksum;
    stats_.skipped_version += scan.skipped_version;
    stats_.truncated += scan.truncated;
    stats_.bad_segments += scan.bad_segment;
    stats_.bytes += file_size(path);
  }
  stats_.records = stats_.recovered;
  stats_.segments = segment_files_.size();

  // Derive the next fresh segment id from the highest listed name.
  for (const auto& name : segment_files_) {
    unsigned long long id = 0;
    if (std::sscanf(name.c_str(), "seg-%llu.seg", &id) == 1) {
      next_segment_id_ =
          std::max<std::uint64_t>(next_segment_id_, id + 1);
    }
  }

  // Reopen the last listed segment for appending (or start the first one).
  // A previous crash may have left a truncated tail; appending after it
  // would make every later record unreachable to the scanner, so a segment
  // whose scan hit corruption is sealed as-is and a fresh one started.
  bool need_fresh = segment_files_.empty();
  if (!need_fresh) {
    const std::string last = segment_path(segment_files_.back());
    const bool dirty = stats_.skipped_total() > 0;
    if (dirty) {
      need_fresh = true;
    } else {
      auto file = AppendFile::open(last);
      if (!file.has_value()) return IoStatus::failure(file.error().message);
      active_ = std::move(*file);
      if (active_.size() == 0) {
        if (auto st = active_.append(segment_header()); !st) return st;
      }
    }
  }
  if (need_fresh) {
    if (auto st = start_segment(); !st) return st;
  } else if (!file_exists(cfg_.dir + "/" + kManifestName)) {
    if (auto st = write_manifest(); !st) return st;
  }
  open_ = true;
  return {};
}

std::optional<std::string> DiskTier::read_record(
    const Location& loc, const std::string& expect_key) {
  if (loc.segment >= segment_files_.size()) return std::nullopt;
  auto bytes = read_range(segment_path(segment_files_[loc.segment]),
                          loc.offset, static_cast<std::size_t>(loc.length));
  if (!bytes.has_value() || bytes->size() != loc.length) {
    ++stats_.read_errors;
    return std::nullopt;
  }
  std::string_view key;
  std::string_view value;
  if (!decode_record_at(*bytes, &key, &value)) {
    ++stats_.read_errors;
    return std::nullopt;
  }
  if (key != expect_key) return std::nullopt;  // hash collision, not an error
  return std::string(value);
}

std::optional<std::string> DiskTier::get(const std::string& key) {
  if (!open_) return std::nullopt;
  const auto it = index_.find(fnv1a64(key));
  if (it == index_.end()) return std::nullopt;
  for (const Location& loc : it->second) {
    if (auto value = read_record(loc, key)) return value;
  }
  return std::nullopt;
}

IoStatus DiskTier::put(const std::string& key, std::string_view value) {
  if (!open_) return IoStatus::failure("disk tier not open");
  const std::uint64_t h = fnv1a64(key);
  const auto it = index_.find(h);
  if (it != index_.end()) {
    for (const Location& loc : it->second) {
      if (read_record(loc, key).has_value()) {
        ++stats_.duplicates;
        return {};
      }
    }
  }

  if (active_.size() >= cfg_.max_segment_bytes) {
    if (auto st = active_.sync(); !st) return st;
    active_.close();
    if (auto st = start_segment(); !st) return st;
  }

  const std::string record = encode_record(key, value);
  const Location loc{static_cast<std::uint32_t>(segment_files_.size() - 1),
                     active_.size(), record.size()};
  if (auto st = active_.append(record); !st) return st;
  index_[h].push_back(loc);
  ++stats_.appended;
  ++stats_.records;
  stats_.bytes += record.size();
  return {};
}

IoStatus DiskTier::flush() {
  if (!open_ || !active_.is_open()) return {};
  return active_.sync();
}

}  // namespace ipso::store
