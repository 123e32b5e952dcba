#include "matview/hash_index.h"

#include "common/logging.h"

namespace gstream {

HashIndex::HashIndex(const Relation* rel, uint32_t col, bool build)
    : rel_(rel), col_(col) {
  GS_CHECK(col < rel->arity());
  if (build) CatchUp();
}

void HashIndex::CatchUp() {
  if (generation_ != rel_->generation() || erasures_ != rel_->erasures()) {
    map_.Clear();
    indexed_ = 0;
    generation_ = rel_->generation();
    erasures_ = rel_->erasures();
  }
  const size_t n = rel_->NumRows();
  if (indexed_ == n) return;
  // No pre-reserve: n counts rows, not distinct keys, and a fanout-f column
  // would permanently hold an f-times-oversized table (the capacity feeds
  // the fig13c memory accounting). Growth doubling keeps the build O(n).
  for (size_t i = indexed_; i < n; ++i)
    map_.Add(rel_->At(i, col_), static_cast<uint32_t>(i));
  indexed_ = n;
}

void HashIndex::PatchErase(size_t row) {
  GS_DCHECK(row < rel_->NumRows());
  if (generation_ != rel_->generation() || erasures_ != rel_->erasures()) return;
  const size_t last = rel_->NumRows() - 1;
  const auto id = [](size_t r) { return static_cast<uint32_t>(r); };
  if (row < indexed_) map_.Remove(rel_->At(row, col_), id(row));
  if (row != last) {
    // The last row moves into `row`: it keeps (or, when it was not indexed
    // yet, gains) a posting under its key, now at `row`. Insert before
    // removing so a single-posting key is never freed and re-created.
    const VertexId key = rel_->At(last, col_);
    if (last < indexed_) {
      map_.InsertSorted(key, id(row));
      map_.Remove(key, id(last));
    } else if (row < indexed_) {
      map_.InsertSorted(key, id(row));
    }
  }
  if (indexed_ > last) indexed_ = last;
  ++erasures_;
}

size_t HashIndex::MemoryBytes() const {
  return sizeof(*this) + map_.MemoryBytes();
}

}  // namespace gstream
