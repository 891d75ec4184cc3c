#include "workloads/sort.h"

#include <algorithm>
#include <queue>

namespace ipso::wl {

std::vector<std::string> sort_map(const std::string& shard_text) {
  std::vector<std::string> words = tokenize(shard_text);
  std::sort(words.begin(), words.end());
  return words;
}

std::vector<std::string> sort_merge(
    const std::vector<std::vector<std::string>>& runs) {
  // Heap-based k-way merge, as a real external-sort reducer would do.
  struct Cursor {
    const std::vector<std::string>* run;
    std::size_t pos;
  };
  auto greater = [](const Cursor& a, const Cursor& b) {
    return (*a.run)[a.pos] > (*b.run)[b.pos];
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(greater)> heap(
      greater);
  std::size_t total = 0;
  for (const auto& run : runs) {
    total += run.size();
    if (!run.empty()) heap.push({&run, 0});
  }
  std::vector<std::string> out;
  out.reserve(total);
  while (!heap.empty()) {
    Cursor c = heap.top();
    heap.pop();
    out.push_back((*c.run)[c.pos]);
    if (++c.pos < c.run->size()) heap.push(c);
  }
  return out;
}

bool is_sorted_output(const std::vector<std::string>& words) {
  return std::is_sorted(words.begin(), words.end());
}

mr::MrWorkloadSpec sort_spec() {
  mr::MrWorkloadSpec spec;
  spec.name = "Sort";
  // Tokenize + local sort of a 128 MB text shard: ~19.1 ops/byte, giving
  // tp(1) ~ 24.5 s and eta ~ 0.59, which reproduces the paper's bounded
  // speedup of ~5 (bound = (eta*alpha + 1-eta)/(1-eta) with alpha = 1/0.36).
  spec.map_ops_per_byte = 19.1;
  // Sort forwards all data: the in-proportion driver.
  spec.intermediate_ratio = 1.0;
  spec.merge_ops_per_byte = 3.0;
  // Output commit / DFS write constant sized so the IN(n) slope —
  // (ingest + merge time per 128 MB shard) / Ws(1) — is 0.36 (paper Fig. 6):
  // per-shard serial increment = 128e6/56.25e6 + 3.0*128e6/1e8 = 6.12 s,
  // so Ws(1) = 6.12/0.36 = 17.0 s and the constant is 10.87 s ~ 1.087e9 ops.
  spec.fixed_reduce_ops = 1.087e9;
  // The paper observed a memory-overflow step only for TeraSort; Sort's
  // text intermediate streams through merge without spilling.
  spec.spill_enabled = false;
  return spec;
}

}  // namespace ipso::wl
