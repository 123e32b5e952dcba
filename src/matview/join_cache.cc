#include "matview/join_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace gstream {

HashIndex* JoinCache::Get(const Relation* rel, uint32_t col) {
  HashIndex* index;
  {
    // The indexes live behind unique_ptr, so only the map structure needs
    // the lock; a concurrent Get for another key may rehash the slot array
    // under us the moment it is released.
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<HashIndex>& slot = cache_.GetOrCreate(Key{rel, col});
    if (slot == nullptr)
      slot = std::make_unique<HashIndex>(rel, col, /*build=*/false);
    index = slot.get();
  }
  index->CatchUp();
  return index;
}

void JoinCache::Evict(const Relation* rel) {
  std::lock_guard<std::mutex> lock(mu_);
  // Collect first: Erase invalidates slot pointers mid-iteration.
  std::vector<Key> doomed;
  cache_.ForEach([&](const Key& key, const std::unique_ptr<HashIndex>&) {
    if (key.first == rel) doomed.push_back(key);
  });
  for (const Key& key : doomed) cache_.Erase(key);
}

void JoinCache::PatchErase(const Relation* rel, size_t row) {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t col = 0; col < rel->arity(); ++col) {
    std::unique_ptr<HashIndex>* index = cache_.Find(Key{rel, col});
    if (index != nullptr) (*index)->PatchErase(row);
  }
}

size_t JoinCache::MemoryBytes() const {
  size_t bytes = sizeof(*this) + cache_.MemoryBytes();
  cache_.ForEach([&](const Key&, const std::unique_ptr<HashIndex>& index) {
    bytes += index->MemoryBytes();
  });
  return bytes;
}

HashIndex* WindowJoinCache::Get(const Relation* rel, uint32_t col,
                                uint32_t touch_weight) {
  HashIndex* index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = cache_.GetOrCreate(Key{rel, col});
    // A weighted touch stands for `touch_weight` per-query probes (shared
    // finalization collapses them into one call); crediting them all keeps
    // the build decision identical to the per-query pipeline's.
    entry.touches += touch_weight;
    if (entry.touches < 2) return nullptr;  // first touch: caller scans
    // Tiny views: a handful-of-rows scan beats paying the index build and
    // its CatchUp bookkeeping on every touch (ROADMAP §7.5 — plain TRIC's
    // batch overhead at small scales). Declining is result-neutral (an
    // indexed equi-join emits exactly the scan join's rows), and the view
    // is re-checked on each touch, so the index kicks in as soon as the
    // view outgrows the threshold mid-window. An already-built index keeps
    // serving (its build cost is sunk).
    if (entry.index == nullptr && rel->NumRows() < kMinIndexRows) return nullptr;
    if (entry.index == nullptr)
      entry.index = std::make_unique<HashIndex>(rel, col, /*build=*/false);
    index = entry.index.get();
  }
  index->CatchUp();
  return index;
}

size_t WindowJoinCache::MemoryBytes() const {
  size_t bytes = sizeof(*this) + cache_.MemoryBytes();
  cache_.ForEach([&](const Key&, const Entry& entry) {
    if (entry.index != nullptr) bytes += entry.index->MemoryBytes();
  });
  return bytes;
}

void WindowProvenance::Checkpoint(const Relation* rel, uint32_t position) {
  std::vector<WindowCheckpoint>& log = logs_.GetOrCreate(rel);
  const size_t rows = rel->NumRows();
  if (!log.empty()) {
    if (log.back().position == position) return;
    if (log.back().row_begin == rows) {
      // The previous position appended nothing; its empty interval folds
      // into this one.
      log.back().position = position;
      return;
    }
  }
  log.push_back(WindowCheckpoint{rows, position});
}

void WindowProvenance::Checkpoint(const Relation* rel, uint32_t position,
                                  size_t row_begin) {
  std::vector<WindowCheckpoint>& log = logs_.GetOrCreate(rel);
  if (!log.empty() && log.back().position == position) return;
  GS_DCHECK(log.empty() || log.back().row_begin <= row_begin);
  log.push_back(WindowCheckpoint{row_begin, position});
}

RowTags WindowProvenance::TagsFor(const Relation* rel) const {
  const std::vector<WindowCheckpoint>* log = logs_.Find(rel);
  if (log == nullptr || log->empty()) return RowTags{};
  return RowTags{nullptr, log->data(), log->size()};
}

size_t WindowProvenance::WindowDeltaBegin(const Relation* rel) const {
  const std::vector<WindowCheckpoint>* log = logs_.Find(rel);
  if (log == nullptr || log->empty()) return rel->NumRows();
  return log->front().row_begin;
}

size_t WindowProvenance::MemoryBytes() const {
  size_t bytes = sizeof(*this) + logs_.MemoryBytes();
  logs_.ForEach([&](const Relation*, const std::vector<WindowCheckpoint>& log) {
    bytes += log.capacity() * sizeof(WindowCheckpoint);
  });
  return bytes;
}

bool RetiredRowLog::Retire(const Relation* rel, size_t row, uint32_t position) {
  RetiredRowMap& rows = logs_.GetOrCreate(rel);
  const bool first = rows.empty();
  uint32_t& at = rows.GetOrCreate(static_cast<uint32_t>(row));
  GS_DCHECK(at == 0);
  at = position;
  return first;
}

std::vector<uint32_t> RetiredRowLog::RowsDescending(const Relation* rel) const {
  std::vector<uint32_t> rows;
  const RetiredRowMap* retired = RowsOf(rel);
  if (retired == nullptr) return rows;
  rows.reserve(retired->size());
  retired->ForEach([&](uint32_t row, uint32_t) { rows.push_back(row); });
  std::sort(rows.begin(), rows.end(), [](uint32_t a, uint32_t b) { return a > b; });
  return rows;
}

}  // namespace gstream
