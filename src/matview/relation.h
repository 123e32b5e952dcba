#ifndef GSTREAM_MATVIEW_RELATION_H_
#define GSTREAM_MATVIEW_RELATION_H_

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/hash.h"
#include "common/ids.h"

namespace gstream {

/// A materialized view: a fixed-arity relation of vertex-id tuples with set
/// semantics (paper §4.1 "Materialization": matV[e] stores all updates that
/// match e; path views store the join results along a covering path).
///
/// Duplicate rows are rejected, which is what makes the delta-based
/// answering phase exact (every derivation of a tuple may be attempted; only
/// the first lands). Rows are appended at the end and retracted in place
/// (paper §4.3 deletions): `Erase(i)` moves the last row into slot `i`, so a
/// retraction costs the rows it removes, and every row but the moved one
/// keeps its index. Maintained hash indexes follow an erase through
/// `HashIndex::PatchErase`; `erasures()` tells an index that missed one to
/// rebuild.
///
/// Storage is columnar-flat: one contiguous id buffer plus a flat
/// open-addressing dedup set (hash + row index, no per-row nodes), so appends
/// are allocation-free between capacity doublings.
///
/// Provenance (window-delta join pipeline, DESIGN.md §7): a relation may
/// carry an optional provenance column — one `uint32_t` window position per
/// row, packed in a parallel buffer so the id columns, their layout, and the
/// dedup hashing stay untouched. Row identity remains the id columns alone:
/// the delta pipeline guarantees every derivation of a row carries the same
/// tag (a row's contributing view rows are determined by its ids), so a
/// duplicate `AppendTagged` keeps the existing row and its tag.
///
/// Not copyable. Move-constructible, but note that hash indexes hold stable
/// pointers to a relation — anything indexed must stay put; own such
/// relations via std::unique_ptr.
class Relation {
 public:
  explicit Relation(uint32_t arity);
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&&) = delete;

  /// Appends `row` (arity() ids) unless an equal row exists.
  /// Returns true when the row was inserted.
  bool Append(const VertexId* row);
  bool Append(const std::vector<VertexId>& row);

  /// Switches on the provenance column (call before the first append; used
  /// by window-delta transients, never by shared views). Rows appended via
  /// plain `Append` get tag 0 (= pre-window).
  void EnableProvenance();
  bool has_provenance() const { return prov_enabled_; }

  /// Appends `row` tagged with window position `prov`; on a duplicate the
  /// existing row keeps its tag (derivations of equal rows carry equal tags
  /// — enforced in debug builds). Requires an enabled provenance column.
  bool AppendTagged(const VertexId* row, uint32_t prov);

  /// Window position tag of row `i` (0 when no provenance column).
  uint32_t ProvOf(size_t i) const { return prov_enabled_ ? prov_[i] : 0; }

  /// Dense per-row tag array, or nullptr without a provenance column.
  const uint32_t* ProvData() const { return prov_enabled_ ? prov_.data() : nullptr; }

  /// Pre-sizes storage for `rows` total rows (data buffer + dedup set).
  void Reserve(size_t rows);

  /// Appends every row of `other` (arities must match). Returns the number
  /// of rows actually inserted.
  size_t AppendAll(const Relation& other);

  /// Index of the row equal to `row` (arity() ids), or `kNoRow`.
  size_t Find(const VertexId* row) const;

  /// Retraction (paper §4.3: edge deletions remove the affected tuples from
  /// the materialized views): erases row `i` in place. The last row moves
  /// into slot `i` (its dedup entry is re-pointed, the erased row's entry
  /// freed), so only the moved row changes index. Bumps `erasures()`.
  void Erase(size_t i);

  /// Drops all rows (bumps `generation()` when non-empty).
  void Clear();

  /// Incremented by every non-empty Clear: row indexes of different
  /// generations are unrelated.
  uint64_t generation() const { return generation_; }

  /// Number of `Erase` calls so far. A maintained index that has patched
  /// itself through every erase (HashIndex::PatchErase) is current; one
  /// whose count lags rebuilds.
  uint64_t erasures() const { return erasures_; }

  static constexpr size_t kNoRow = static_cast<size_t>(-1);

  uint32_t arity() const { return arity_; }
  size_t NumRows() const { return num_rows_; }
  bool Empty() const { return num_rows_ == 0; }

  /// Pointer to the first id of row `i`.
  const VertexId* Row(size_t i) const { return data_.data() + i * arity_; }
  VertexId At(size_t row, uint32_t col) const { return data_[row * arity_ + col]; }

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const;

 private:
  bool RowEquals(const VertexId* a, const VertexId* b) const {
    for (uint32_t c = 0; c < arity_; ++c)
      if (a[c] != b[c]) return false;
    return true;
  }

  uint32_t arity_;
  bool prov_enabled_ = false;
  size_t num_rows_ = 0;
  uint64_t generation_ = 0;
  uint64_t erasures_ = 0;
  std::vector<VertexId> data_;
  std::vector<uint32_t> prov_;  ///< One tag per row when prov_enabled_.
  FlatRowSet row_set_;
};

}  // namespace gstream

#endif  // GSTREAM_MATVIEW_RELATION_H_
