#ifndef GSTREAM_MATVIEW_JOIN_CACHE_H_
#define GSTREAM_MATVIEW_JOIN_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include <vector>

#include "common/flat_map.h"
#include "common/hash.h"
#include "matview/hash_index.h"
#include "matview/join.h"

namespace gstream {

/// Source of maintained equi-join indexes. Two implementations: the "+"
/// engines' persistent `JoinCache` and the batch windows' transient
/// `WindowJoinCache`.
class JoinIndexSource {
 public:
  virtual ~JoinIndexSource() = default;

  /// A maintained index over `rel` column `col`, or nullptr when the source
  /// declines (callers fall back to the scan join).
  virtual HashIndex* Get(const Relation* rel, uint32_t col) = 0;

  /// Weighted variant for shared window finalization (DESIGN.md §9): one
  /// signature-group pass probes `rel` once where the per-query pipeline
  /// would have probed it `touch_weight` times (once per member), so
  /// touch-amortizing sources credit the full weight to keep their
  /// build-vs-scan decisions identical to the unshared pipeline. Sources
  /// that do not count touches ignore the weight.
  virtual HashIndex* Get(const Relation* rel, uint32_t col, uint32_t touch_weight) {
    (void)touch_weight;
    return Get(rel, col);
  }
};

/// The "+" extension (paper §4.2 "Caching"): instead of discarding the hash
/// tables built during each join, keep them keyed by (relation, column) and
/// maintain them incrementally as the underlying views grow and shrink.
/// TRIC+, INV+ and INC+ own one JoinCache; the base algorithms pass null
/// indexes and rebuild per join. The cache itself is a flat open-addressing
/// map — `Get` sits on the per-update hot path of every "+" engine.
class JoinCache : public JoinIndexSource {
 public:
  /// Returns a maintained index over `rel` column `col`, creating it on first
  /// use and catching up on rows appended since the previous call.
  ///
  /// Thread-safety: the cache map is guarded by a mutex so footprint-disjoint
  /// batch shards may call Get concurrently; the CatchUp itself runs outside
  /// the lock, which is sound because disjoint shards never share a relation
  /// (hence never share an index).
  HashIndex* Get(const Relation* rel, uint32_t col) override;

  size_t NumIndexes() const { return cache_.size(); }

  /// Approximate heap footprint of all cached indexes.
  size_t MemoryBytes() const;

  /// Drops every cached index over `rel` (all columns). Part of the query-
  /// lifecycle GC: a garbage-collected view's indexes must go with it, or
  /// the cache dangles into freed relation storage. Call before the
  /// relation is destroyed; finish the removal batch with `Compact()`.
  void Evict(const Relation* rel);

  /// Call right before `rel->Erase(row)`: patches every cached index over
  /// `rel` (HashIndex::PatchErase) so none of them rebuilds after the
  /// erase. Coordinator-only (a batch window holding a deletion never
  /// shards).
  void PatchErase(const Relation* rel, size_t row);

  /// Releases tombstoned capacity after an eviction wave (one rehash, so
  /// callers batch evictions and compact once).
  void Compact() {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.Compact();
  }

  void Clear() { cache_.Clear(); }

 private:
  using Key = std::pair<const Relation*, uint32_t>;
  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t seed = 0;
      HashCombine(seed, reinterpret_cast<uintptr_t>(k.first));
      HashCombine(seed, k.second);
      return seed;
    }
  };
  std::mutex mu_;  ///< Guards cache_ (map structure only, not the indexes).
  FlatMap<Key, std::unique_ptr<HashIndex>, KeyHash> cache_;
};

/// Batch-window-scoped index source for the base (non-"+") engines: the
/// paper's base algorithms rebuild their join hash tables per update, so a
/// delta window that touches the same view repeatedly pays the same build
/// over and over. This cache makes the *first* touch of a (relation, column)
/// decline (the caller scans — exactly the sequential base-engine plan) and
/// amortizes from the second touch on through a transient maintained index.
/// The owning engine creates one per insert window and drops it at the
/// window boundary (its bytes count as transient scratch, not engine state),
/// so the base engines keep their defining no-persistent-cache behavior.
///
/// Thread-safety mirrors JoinCache: the map is locked, CatchUp runs outside
/// the lock (disjoint shards never share a relation).
class WindowJoinCache : public JoinIndexSource {
 public:
  /// Views below this row count are never worth an index build within a
  /// window: the break-even between per-touch scans and build-once-probe-
  /// many sits around a few dozen rows (micro_join's Window A/B pairs).
  static constexpr size_t kMinIndexRows = 16;

  HashIndex* Get(const Relation* rel, uint32_t col) override {
    return Get(rel, col, 1);
  }

  /// Touch-counted Get: a shared-finalize pass serving a whole signature
  /// group passes the group size, so the entry reaches the build threshold
  /// exactly when the equivalent per-query passes would have.
  HashIndex* Get(const Relation* rel, uint32_t col, uint32_t touch_weight) override;

  /// Approximate bytes of all indexes built this window (peak-transient
  /// accounting). Call from the coordinator only.
  size_t MemoryBytes() const;

 private:
  using Key = std::pair<const Relation*, uint32_t>;
  struct Entry {
    uint32_t touches = 0;
    std::unique_ptr<HashIndex> index;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t seed = 0;
      HashCombine(seed, reinterpret_cast<uintptr_t>(k.first));
      HashCombine(seed, k.second);
      return seed;
    }
  };
  std::mutex mu_;
  FlatMap<Key, Entry, KeyHash> cache_;
};

/// Hash functor for relation-pointer keys in FlatMap (the window logs).
struct RelationPtrHash {
  size_t operator()(const Relation* r) const {
    return Mix64(reinterpret_cast<uintptr_t>(r));
  }
};

/// Window-scoped provenance log of the delta pipeline (DESIGN.md §7): for
/// every shared view a batch window appends to, the row-index boundaries of
/// each window position, recorded as the window replays its updates.
/// `TagsFor` then derives any row's window position from its index alone —
/// the views themselves stay untouched (no widening, no per-row tag writes
/// to shared state).
///
/// One instance per shard per window (shards touch footprint-disjoint
/// relations), so no locking. Dropped at the window boundary.
class WindowProvenance {
 public:
  /// Records that subsequent appends to `rel` belong to window `position`
  /// (1-based, ascending across calls). Call before the appends of each
  /// position; empty positions fold away.
  void Checkpoint(const Relation* rel, uint32_t position);

  /// Checkpoint with an explicit boundary: `row_begin` was `rel`'s row count
  /// before this position's appends. Callers that already track the before-
  /// count use this to log only positions that actually grew the relation
  /// (no empty-touch bookkeeping on the hot path).
  void Checkpoint(const Relation* rel, uint32_t position, size_t row_begin);

  /// Tags for `rel`'s rows; a default (all pre-window) RowTags when the
  /// window never touched `rel`.
  RowTags TagsFor(const Relation* rel) const;

  /// First window row of `rel`: the window's delta range is
  /// [WindowDeltaBegin(rel), rel->NumRows()). `rel->NumRows()` at call time
  /// when untouched.
  size_t WindowDeltaBegin(const Relation* rel) const;

  size_t MemoryBytes() const;

 private:
  FlatMap<const Relation*, std::vector<WindowCheckpoint>, RelationPtrHash> logs_;
};

/// Window-scoped retirement log of a mixed insert/delete window (DESIGN.md
/// §16), the deletion-side counterpart of WindowProvenance: per shared view,
/// the rows a deletion inside the window retired and that deletion's window
/// position. A row is visible from the position that appended it (its
/// provenance tag) until the position that retired it. The rows stay in
/// their views while the window runs, so row ids — and with them the
/// provenance checkpoints — stay stable; the owning engine erases them once
/// the window's final joins have run.
///
/// One instance per window. Windows holding a deletion run on the
/// coordinator, so no locking. Dropped at the window boundary.
class RetiredRowLog {
 public:
  /// Marks row `row` of `rel` retired at `position`. A row retires at most
  /// once per window (a deletion only retires rows that are still live).
  /// Returns true when this is the first row of `rel` the window retired.
  bool Retire(const Relation* rel, size_t row, uint32_t position);

  /// `rel`'s retired rows, or nullptr when the window retired none. The
  /// pointer is invalidated by the next Retire.
  const RetiredRowMap* RowsOf(const Relation* rel) const {
    return logs_.empty() ? nullptr : logs_.Find(rel);
  }

  /// `rel`'s retired row ids, descending: erasing in this order with
  /// swap-remove never moves a retired row that is still waiting.
  std::vector<uint32_t> RowsDescending(const Relation* rel) const;

  bool empty() const { return logs_.empty(); }

 private:
  FlatMap<const Relation*, RetiredRowMap, RelationPtrHash> logs_;
};

}  // namespace gstream

#endif  // GSTREAM_MATVIEW_JOIN_CACHE_H_
