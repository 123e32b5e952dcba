#ifndef GSTREAM_MATVIEW_HASH_INDEX_H_
#define GSTREAM_MATVIEW_HASH_INDEX_H_

#include <cstdint>

#include "common/flat_map.h"
#include "common/ids.h"
#include "matview/relation.h"

namespace gstream {

/// Equi-join hash index over one column of a relation: the build-phase hash
/// table of the paper's hash joins (§4.2 "Caching"). Base algorithms build
/// such tables transiently and discard them after each join; the "+"
/// variants keep them in a `JoinCache` and maintain them incrementally:
/// `CatchUp()` indexes the rows appended since the last call, and
/// `PatchErase` follows an in-place retraction (Relation::Erase) by editing
/// only the postings of the erased and the moved row.
///
/// Postings live in a flat open-addressing map with small-buffer posting
/// lists (see flat_map.h); `Probe` returns a non-owning span whose row ids
/// are in ascending order (appends index in row order, patches insert at
/// the sorted position) — ExtendRightSingle and JoinConcat binary-search it.
class HashIndex {
 public:
  /// With `build` (default) the constructor indexes the relation's current
  /// rows; `build = false` defers to the first CatchUp, which lets JoinCache
  /// allocate entries inside its lock and index outside it.
  HashIndex(const Relation* rel, uint32_t col, bool build = true);

  /// Indexes rows appended since construction / the previous CatchUp. The
  /// index is rebuilt from scratch when the relation was cleared (its
  /// `generation()` moved) or erased a row this index did not patch (its
  /// `erasures()` ran ahead) — the safety net for indexes no engine hook
  /// reaches.
  void CatchUp();

  /// Call right before `relation()->Erase(row)`: drops `row`'s posting and
  /// moves the last row's posting to `row`, so the index stays current
  /// across the erase without a rebuild. Rows not indexed yet stay for the
  /// next CatchUp. A stale index (one CatchUp would rebuild) is left alone.
  void PatchErase(size_t row);

  /// Row indexes whose `col` equals `key` (among indexed rows), ascending.
  /// The span is invalidated by the next CatchUp.
  RowIdSpan Probe(VertexId key) const { return map_.Probe(key); }

  const Relation* relation() const { return rel_; }
  uint32_t column() const { return col_; }
  size_t indexed_rows() const { return indexed_; }

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const;

 private:
  const Relation* rel_;
  uint32_t col_;
  size_t indexed_ = 0;
  uint64_t generation_ = 0;
  uint64_t erasures_ = 0;  ///< The relation's erasures() this index follows.
  FlatPostingMap map_;
};

}  // namespace gstream

#endif  // GSTREAM_MATVIEW_HASH_INDEX_H_
