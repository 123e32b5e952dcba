#ifndef GSTREAM_MATVIEW_JOIN_H_
#define GSTREAM_MATVIEW_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"
#include "matview/hash_index.h"
#include "matview/relation.h"

namespace gstream {

/// A contiguous run of rows of a relation — either a full view or the delta
/// appended by the current update.
struct RowRange {
  const Relation* rel = nullptr;
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
};

inline RowRange AllRows(const Relation& r) { return {&r, 0, r.NumRows()}; }
inline RowRange DeltaRows(const Relation& r, size_t from) {
  return {&r, from, r.NumRows()};
}

/// One window-position boundary of a shared view: rows with index >=
/// `row_begin` (up to the next checkpoint) were appended while processing
/// the window update at 1-based `position`.
struct WindowCheckpoint {
  size_t row_begin;
  uint32_t position;
};

/// Per-row window-position tags for the window-delta join pipeline
/// (DESIGN.md §7). Two backings:
///  * `column` — the dense tag array of a provenance-enabled Relation
///    (delta transients);
///  * `checkpoints` — WindowProvenance boundaries of a shared view, tags
///    derived from the row index (ascending `row_begin`; rows before the
///    first checkpoint are pre-window).
/// A default RowTags tags every row 0 (= pre-window / untouched view).
struct RowTags {
  const uint32_t* column = nullptr;
  const WindowCheckpoint* checkpoints = nullptr;
  size_t num_checkpoints = 0;

  uint32_t TagOf(size_t row) const {
    if (column != nullptr) return column[row];
    // Last checkpoint with row_begin <= row owns the interval.
    size_t lo = 0, hi = num_checkpoints;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (checkpoints[mid].row_begin <= row)
        lo = mid + 1;
      else
        hi = mid;
    }
    return lo == 0 ? 0 : checkpoints[lo - 1].position;
  }
};

/// Tags backed by `r`'s own provenance column (all-zero when absent).
inline RowTags TagsOfProvenance(const Relation& r) {
  return RowTags{r.ProvData(), nullptr, 0};
}

/// A window's worth of tagged seed rows: the delta a whole batch window
/// appended to one relation, each row tagged with the 1-based window
/// position of the update that produced it. The delta-batch kernels run one
/// build+probe pass over such a batch where the per-update path would run
/// one pass per update.
struct DeltaBatch {
  RowRange rows;
  RowTags tags;
};

/// The rows of one shared view that deletions inside the current mixed
/// insert/delete window retired (DESIGN.md §16): row index -> 1-based window
/// position of the retiring deletion. Retired rows stay in their view until
/// the window ends (an erase would renumber rows under the window's
/// provenance checkpoints), so a kernel extending the view's *current*
/// state skips them.
using RetiredRowMap = FlatMap<uint32_t, uint32_t, VertexIdHash>;

/// Path-extension join (paper §4.2 Step 2): `out += prefix ⋈ base` where the
/// prefix's last column equals the base edge view's source column (column 0)
/// and the output row is the prefix row extended with the base target
/// (column 1). `out.arity() == prefix arity + 1`.
///
/// `base_src_index`, when non-null, must index `base` column 0; the cached
/// ("+") engines pass it, the base engines pass nullptr and pay the paper's
/// build-and-discard hash-join cost (build over the smaller prefix range,
/// probe by scanning `base`).
void ExtendRight(RowRange prefix, const Relation& base, const HashIndex* base_src_index,
                 Relation& out);

/// Single-update variant: `out += prefix ⋈ {(src, dst)}` joining the prefix's
/// last column against `src`. With `prefix_last_index` (cached engines) this
/// is an O(matches) probe; without it the prefix range is scanned. Prefix
/// rows listed in `retired` (when non-null) are skipped.
void ExtendRightSingle(RowRange prefix, VertexId src, VertexId dst,
                       const HashIndex* prefix_last_index, Relation& out,
                       const RetiredRowMap* retired = nullptr);

/// Leftward path extension (INC walking a path backwards from the update):
/// `out += base ⋈ suffix` joining the base target (column 1) against the
/// suffix's first column; output row is the base source prepended to the
/// suffix row. `base_dst_index`, when non-null, must index `base` column 1.
void ExtendLeft(RowRange suffix, const Relation& base, const HashIndex* base_dst_index,
                Relation& out);

/// General equi-join: emits `a_row ++ b_row` for every pair agreeing on all
/// `keys` (pairs of (a column, b column)). With empty `keys` this is a cross
/// product. `b_first_key_index`, when non-null, must index `b.rel` on
/// `keys[0].second`.
void JoinConcat(RowRange a, RowRange b,
                const std::vector<std::pair<uint32_t, uint32_t>>& keys,
                const HashIndex* b_first_key_index, Relation& out);

/// Delta-batch variants (window-delta pipeline): same join plans as the
/// untagged kernels above, but the left side is a DeltaBatch of tagged seed
/// rows, the right side's rows carry `b`/`base` tags, and every emitted row
/// lands in the provenance-enabled `out` tagged with the max of its inputs'
/// tags — the window position at which the sequential per-update path would
/// have produced it. One build+probe pass therefore serves every update in
/// the window; sorting/grouping emitted rows by tag reconstructs the exact
/// per-update results.

/// `out += prefix ⋈ base` (see ExtendRight), max-combining tags.
void ExtendRightDelta(DeltaBatch prefix, const Relation& base,
                      const HashIndex* base_src_index, RowTags base_tags,
                      Relation& out);

/// `out += base ⋈ suffix` (see ExtendLeft), max-combining tags.
void ExtendLeftDelta(DeltaBatch suffix, const Relation& base,
                     const HashIndex* base_dst_index, RowTags base_tags,
                     Relation& out);

/// General tagged equi-join (see JoinConcat), max-combining tags.
void JoinConcatDelta(DeltaBatch a, RowRange b, RowTags b_tags,
                     const std::vector<std::pair<uint32_t, uint32_t>>& keys,
                     const HashIndex* b_first_key_index, Relation& out);

}  // namespace gstream

#endif  // GSTREAM_MATVIEW_JOIN_H_
