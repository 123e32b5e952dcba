#ifndef GSTREAM_COMMON_FLAT_MAP_H_
#define GSTREAM_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/ids.h"
#include "common/logging.h"

#if !defined(GSTREAM_NO_SIMD) && defined(__SSE2__)
#include <emmintrin.h>
#elif !defined(GSTREAM_NO_SIMD) && defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace gstream {

/// Flat open-addressing hash containers for the data plane.
///
/// Every engine in this system funnels through the same two index shapes: a
/// `VertexId -> row ids` posting map (hash-join build tables, maintained
/// indexes, inverted indexes) and a row-dedup set (`Relation`'s set
/// semantics). The std containers used by the seed are node-based — one heap
/// allocation per key and a pointer chase per probe — which dominates
/// streaming-join cost (cf. Pacaci et al., "Evaluating Complex Queries on
/// Streaming Graphs"). The containers here are power-of-two, open-addressing
/// tables with contiguous slot storage and SwissTable-style group probing: a
/// separate per-slot control byte (empty marker | 7-bit hash fragment) lets a
/// probe rule 16 slots in or out with one 16-byte compare, so slot storage is
/// only touched for candidates whose fragment already matched.
///
/// Shared conventions:
///  * capacity is a power of two (and a multiple of the 16-slot group);
///    probing walks group-aligned windows, `g = (g + 16) & mask`;
///  * growth at ~7/8 load factor keeps probe chains short;
///  * every container erases in place: an erased slot becomes a tombstone
///    that keeps probe chains intact, so only a group holding a truly empty
///    slot terminates a probe. An erase whose group still holds an empty
///    slot writes an empty slot instead (no probe chain ever ran through
///    that group — groups are probed aligned, and a group regains an empty
///    slot only through this rule or a rehash). Inserts reuse the first free
///    slot on their chain; tombstones count against the load factor, and a
///    table that trips it doubles only when its live entries alone need the
///    room — otherwise it rehashes at its capacity, dropping the tombstones
///    (`GrowthCapacity`) — so a sliding window of keys keeps a bounded
///    table. The hot-path containers (`FlatPostingMap`, `FlatRowSet`) erase
///    for the data plane's in-place retractions (`FlatPostingMap` also
///    shrinks as its keys leave, see `Remove`); the
///    colder `FlatMap` additionally offers `Compact` for the query-lifecycle
///    GC (routing indexes and cached join tables shrink when queries are
///    removed), which rehashes tombstones and excess capacity away so
///    `MemoryBytes` reflects the release.
///
/// SIMD: the 16-byte group compare uses SSE2 on x86 and NEON on arm; defining
/// `GSTREAM_NO_SIMD` (CMake option of the same name) selects a portable
/// scalar loop with bit-identical results. The scalar implementation is
/// always compiled (`ScalarGroup`) so the SIMD paths can be parity-tested
/// against it in the same binary.

namespace flat_internal {

/// Slots probed per group step (one SSE2/NEON register of control bytes).
inline constexpr size_t kGroupWidth = 16;

/// Control byte of an empty slot. Full slots store the 7-bit `H2` fragment
/// (0..127), so the sign bit alone distinguishes empty/deleted from full.
inline constexpr int8_t kCtrlEmpty = -128;

/// Control byte of a tombstoned (erased) slot: negative like kCtrlEmpty so
/// `MatchEmpty` (sign-bit) finds it as a free slot for inserts, but
/// distinct so probes keep walking past it — a tombstone never terminates a
/// probe chain (probes stop on `Match(kCtrlEmpty)`).
inline constexpr int8_t kCtrlDeleted = -2;

/// Smallest power-of-two capacity that holds `n` entries at ≤7/8 load.
inline size_t RoundUpCapacity(size_t n) {
  size_t cap = kGroupWidth;
  while (cap * 7 < n * 8) cap <<= 1;
  return cap;
}

/// True when an insert that claims a fresh empty slot would push `live`
/// entries plus `tombstones` past the 7/8 load factor of `cap` slots.
inline bool NeedsGrowth(size_t live, size_t tombstones, size_t cap) {
  return cap == 0 || (live + tombstones + 1) * 8 > cap * 7;
}

/// Capacity a table that tripped `NeedsGrowth` rehashes into: double only
/// when the live entries alone need it, else the same capacity with the
/// tombstones dropped. A table whose live count slides — inserts and erases
/// in equal measure — therefore stays exactly as large as an erase-free
/// table holding its peak. Near full load the in-place rehashes come more
/// often, each O(capacity).
inline size_t GrowthCapacity(size_t live, size_t cap) {
  if (cap == 0) return kGroupWidth;
  return NeedsGrowth(live, 0, cap) ? cap * 2 : cap;
}

/// Splits a 64-bit hash for group probing: the home-group window and the
/// 7-bit `H2` control fragment must come from disjoint bit ranges, or
/// same-group entries get correlated fragments and the 16-byte prefilter
/// stops filtering. `FlatRowSet`/`FlatMap` index groups from the low bits,
/// so the top-bits fragment is disjoint below 2^57 slots; `FlatPostingMap`
/// indexes from bits 32.. and uses `H2Low` (bits 25..31), disjoint for any
/// capacity.
inline int8_t H2(uint64_t h) { return static_cast<int8_t>(h >> 57); }
inline int8_t H2Low(uint64_t h) { return static_cast<int8_t>((h >> 25) & 0x7f); }

/// Iterator over the matching lanes of one 16-slot group, lowest lane first.
/// `shift` folds the backend mask encodings into one type: SSE2/scalar masks
/// carry one bit per lane, the NEON mask carries one bit in the top of each
/// lane nibble (so lane = trailing-zeros >> shift and `bits & (bits - 1)`
/// clears exactly one lane in both encodings).
class LaneMask {
 public:
  LaneMask(uint64_t bits, uint32_t shift) : bits_(bits), shift_(shift) {}
  explicit operator bool() const { return bits_ != 0; }
  uint32_t Lane() const {
    return static_cast<uint32_t>(__builtin_ctzll(bits_)) >> shift_;
  }
  void Clear() { bits_ &= bits_ - 1; }

 private:
  uint64_t bits_;
  uint32_t shift_;
};

/// Portable group ops; also the reference the SIMD backends are tested
/// against (tests/flat_map_test.cc fuzzes Match/MatchEmpty parity).
struct ScalarGroup {
  explicit ScalarGroup(const int8_t* ctrl) : p(ctrl) {}

  LaneMask Match(int8_t h2) const {
    uint64_t m = 0;
    for (uint32_t i = 0; i < kGroupWidth; ++i)
      m |= static_cast<uint64_t>(p[i] == h2) << i;
    return {m, 0};
  }

  /// Free slots (empty or tombstoned) are the only control bytes with the
  /// sign bit set.
  LaneMask MatchEmpty() const {
    uint64_t m = 0;
    for (uint32_t i = 0; i < kGroupWidth; ++i)
      m |= static_cast<uint64_t>(p[i] < 0) << i;
    return {m, 0};
  }

  const int8_t* p;
};

#if !defined(GSTREAM_NO_SIMD) && defined(__SSE2__)

struct SseGroup {
  explicit SseGroup(const int8_t* ctrl)
      : v(_mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl))) {}

  LaneMask Match(int8_t h2) const {
    const uint32_t m = static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_set1_epi8(h2))));
    return {m, 0};
  }

  LaneMask MatchEmpty() const {
    // Free slots (kCtrlEmpty, kCtrlDeleted) are the sign-bit bytes.
    return {static_cast<uint32_t>(_mm_movemask_epi8(v)), 0};
  }

  __m128i v;
};
using Group = SseGroup;

#elif !defined(GSTREAM_NO_SIMD) && defined(__ARM_NEON)

struct NeonGroup {
  explicit NeonGroup(const int8_t* ctrl) : v(vld1q_s8(ctrl)) {}

  LaneMask Match(int8_t h2) const {
    return FromLanes(vceqq_s8(v, vdupq_n_s8(h2)));
  }

  LaneMask MatchEmpty() const {
    return FromLanes(vcltq_s8(v, vdupq_n_s8(0)));
  }

  /// Narrows a per-lane 0xFF/0x00 mask to 4 bits per lane and keeps one bit
  /// per lane (the nibble's top bit) so `bits & (bits - 1)` clears one lane.
  static LaneMask FromLanes(uint8x16_t eq) {
    const uint8x8_t nib = vshrn_n_u16(vreinterpretq_u16_u8(eq), 4);
    const uint64_t packed = vget_lane_u64(vreinterpret_u64_u8(nib), 0);
    return {packed & 0x8888888888888888ull, 2};
  }

  int8x16_t v;
};
using Group = NeonGroup;

#else
using Group = ScalarGroup;
#endif

/// First free slot on the probe chain starting at group-aligned `g`
/// (insert/rehash path — the caller already knows the key is absent).
inline size_t FindFirstEmpty(const int8_t* ctrl, size_t mask, size_t g) {
  while (true) {
    if (auto e = Group(ctrl + g).MatchEmpty()) return g + e.Lane();
    g = (g + kGroupWidth) & mask;
  }
}

/// Control byte an erase leaves at slot `i`: empty when `i`'s (aligned)
/// group still holds an empty slot — no probe chain ever continued past
/// that group — else a tombstone.
inline int8_t ErasedCtrl(const int8_t* ctrl, size_t i) {
  return Group(ctrl + (i & ~(kGroupWidth - 1))).Match(kCtrlEmpty) ? kCtrlEmpty
                                                                 : kCtrlDeleted;
}

}  // namespace flat_internal

/// Non-owning view over a posting list (row ids, ascending).
struct RowIdSpan {
  const uint32_t* data = nullptr;
  size_t count = 0;

  size_t size() const { return count; }
  bool empty() const { return count == 0; }
  uint32_t operator[](size_t i) const { return data[i]; }
  const uint32_t* begin() const { return data; }
  const uint32_t* end() const { return data + count; }
};

/// Small-buffer-optimized posting list: the first two row ids live inline in
/// the slot (most join keys in the paper's workloads have fanout 1-2), and
/// only high-fanout keys spill to a heap block. Move-only.
class PostingList {
 public:
  static constexpr uint32_t kInlineCap = 2;

  PostingList() = default;
  PostingList(const PostingList&) = delete;
  PostingList& operator=(const PostingList&) = delete;
  PostingList(PostingList&& o) noexcept : size_(o.size_), cap_(o.cap_) {
    std::memcpy(&storage_, &o.storage_, sizeof(storage_));
    o.size_ = 0;
    o.cap_ = kInlineCap;
  }
  PostingList& operator=(PostingList&& o) noexcept {
    if (this != &o) {
      if (spilled()) delete[] storage_.heap;
      size_ = o.size_;
      cap_ = o.cap_;
      std::memcpy(&storage_, &o.storage_, sizeof(storage_));
      o.size_ = 0;
      o.cap_ = kInlineCap;
    }
    return *this;
  }
  ~PostingList() {
    if (spilled()) delete[] storage_.heap;
  }

  void Append(uint32_t v) {
    if (size_ == cap_) Grow();
    (spilled() ? storage_.heap : storage_.inline_ids)[size_++] = v;
  }

  /// Inserts `v` at its ascending position (the list must be ascending).
  void InsertSorted(uint32_t v) {
    Append(v);
    uint32_t* ids = data();
    uint32_t* pos = std::upper_bound(ids, ids + size_ - 1, v);
    std::move_backward(pos, ids + size_ - 1, ids + size_);
    *pos = v;
  }

  /// Removes `v` (present) from the ascending list, keeping the order. A
  /// spilled list gives memory back as it empties: it halves its block once
  /// under 3/8 full (3/4 of the half, so it cannot thrash against Grow's
  /// doubling) and moves back inline once it fits there.
  void Erase(uint32_t v) {
    uint32_t* ids = data();
    uint32_t* pos = std::lower_bound(ids, ids + size_, v);
    const bool present = pos != ids + size_ && *pos == v;
    GS_DCHECK(present);
    if (!present) return;
    std::move(pos + 1, ids + size_, pos);
    --size_;
    if (!spilled()) return;
    if (size_ <= kInlineCap) {
      uint32_t kept[kInlineCap];  // the inline ids share storage with `heap`
      std::memcpy(kept, ids, size_ * sizeof(uint32_t));
      delete[] storage_.heap;
      std::memcpy(storage_.inline_ids, kept, sizeof(kept));
      cap_ = kInlineCap;
    } else if (cap_ > 8 && size_ * 8 < cap_ * 3) {
      Reallocate(cap_ / 2);
    }
  }

  RowIdSpan Span() const {
    return {spilled() ? storage_.heap : storage_.inline_ids, size_};
  }

  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Heap bytes beyond the inline slot.
  size_t HeapBytes() const { return spilled() ? cap_ * sizeof(uint32_t) : 0; }

 private:
  bool spilled() const { return cap_ > kInlineCap; }
  uint32_t* data() { return spilled() ? storage_.heap : storage_.inline_ids; }

  void Grow() { Reallocate(cap_ < 8 ? 8 : cap_ * 2); }

  /// Moves the ids into a fresh heap block of `new_cap` (> kInlineCap) ids.
  void Reallocate(uint32_t new_cap) {
    uint32_t* heap = new uint32_t[new_cap];
    std::memcpy(heap, data(), size_ * sizeof(uint32_t));
    if (spilled()) delete[] storage_.heap;
    storage_.heap = heap;
    cap_ = new_cap;
  }

  uint32_t size_ = 0;
  uint32_t cap_ = kInlineCap;
  union Storage {
    uint32_t inline_ids[kInlineCap];
    uint32_t* heap;
  } storage_ = {};
};

/// Open-addressing map `VertexId -> PostingList`, the hash-join build table
/// and maintained-index shape. Keys may be any VertexId including the
/// `kNoVertex` sentinel (stored out of band). Maintained indexes patch
/// postings in place when their relation erases a row (`Remove` /
/// `InsertSorted` keep every list ascending; a key whose list empties is
/// erased).
class FlatPostingMap {
 public:
  FlatPostingMap() = default;
  FlatPostingMap(FlatPostingMap&&) noexcept = default;
  FlatPostingMap& operator=(FlatPostingMap&&) noexcept = default;

  /// Pre-sizes for `n` distinct keys.
  void Reserve(size_t n) {
    const size_t cap = flat_internal::RoundUpCapacity(n);
    if (cap > Capacity()) Rehash(cap);
  }

  void Add(VertexId key, uint32_t row) { GetOrCreate(key).Append(row); }

  /// Inserts posting `row` at its ascending position in `key`'s list.
  void InsertSorted(VertexId key, uint32_t row) { GetOrCreate(key).InsertSorted(row); }

  /// Removes posting `row` (present) from `key`'s list, keeping the order;
  /// a key whose list empties is erased and its posting storage freed.
  void Remove(VertexId key, uint32_t row) {
    if (key == kEmptyKey) {
      GS_DCHECK(has_sentinel_);
      if (!has_sentinel_) return;
      sentinel_list_.Erase(row);
      if (sentinel_list_.empty()) {
        has_sentinel_ = false;
        --num_keys_;
      }
      return;
    }
    const size_t i = FindSlot(key);
    GS_DCHECK(i != kNoSlot);
    if (i == kNoSlot) return;
    lists_[i].Erase(row);
    if (!lists_[i].empty()) return;
    ctrl_[i] = flat_internal::ErasedCtrl(ctrl_.data(), i);
    if (ctrl_[i] == flat_internal::kCtrlDeleted) ++num_deleted_;
    --num_keys_;
    // Shrink once the keys fill under 3/8 of the table: half the capacity
    // then holds them at under 3/4 load, short of the 7/8 growth point, so
    // a key count swinging around the threshold cannot thrash. An index
    // over a shrinking view thereby stays near the size a rebuild would
    // give it.
    if (Capacity() > flat_internal::kGroupWidth && num_keys_ * 8 < Capacity() * 3)
      Rehash(Capacity() / 2);
  }

  PostingList& GetOrCreate(VertexId key) {
    if (key == kEmptyKey) {
      if (!has_sentinel_) {
        has_sentinel_ = true;
        ++num_keys_;
      }
      return sentinel_list_;
    }
    const uint64_t h = Hash(key);
    const int8_t h2 = flat_internal::H2Low(h);
    // Probe before the growth check: hitting an existing key must neither
    // rehash (slot pointers stay valid) nor pay a wasted table double. The
    // first free slot on the chain is remembered; only a truly empty slot
    // proves the key absent.
    size_t insert_at = kNoSlot;
    if (!ctrl_.empty()) {
      size_t g = HomeGroup(h);
      while (true) {
        const flat_internal::Group grp(ctrl_.data() + g);
        for (auto m = grp.Match(h2); m; m.Clear()) {
          const size_t i = g + m.Lane();
          if (keys_[i] == key) return lists_[i];
        }
        if (insert_at == kNoSlot) {
          if (auto f = grp.MatchEmpty()) insert_at = g + f.Lane();
        }
        if (grp.Match(flat_internal::kCtrlEmpty)) break;
        g = (g + flat_internal::kGroupWidth) & mask_;
      }
    }
    const bool reuse =
        insert_at != kNoSlot && ctrl_[insert_at] == flat_internal::kCtrlDeleted;
    if (reuse) {
      --num_deleted_;
    } else if (flat_internal::NeedsGrowth(num_keys_, num_deleted_, Capacity())) {
      Rehash(flat_internal::GrowthCapacity(num_keys_, Capacity()));
      insert_at = FindInsertSlot(h);
    }
    ctrl_[insert_at] = h2;
    keys_[insert_at] = key;
    ++num_keys_;
    return lists_[insert_at];
  }

  RowIdSpan Probe(VertexId key) const {
    if (key == kEmptyKey) return has_sentinel_ ? sentinel_list_.Span() : RowIdSpan{};
    const size_t i = FindSlot(key);
    return i == kNoSlot ? RowIdSpan{} : lists_[i].Span();
  }

  /// Number of distinct keys.
  size_t size() const { return num_keys_; }
  bool empty() const { return num_keys_ == 0; }

  void Clear() {
    ctrl_.clear();
    keys_.clear();
    lists_.clear();
    num_keys_ = 0;
    num_deleted_ = 0;
    mask_ = 0;
    has_sentinel_ = false;
    sentinel_list_ = PostingList();
  }

  /// Slots (capacity) of the table.
  size_t Capacity() const { return ctrl_.size(); }

  /// `fn(VertexId, RowIdSpan)` over every key, table order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t i = 0; i < ctrl_.size(); ++i)
      if (ctrl_[i] >= 0) fn(keys_[i], lists_[i].Span());
    if (has_sentinel_) fn(kEmptyKey, sentinel_list_.Span());
  }

  size_t MemoryBytes() const {
    size_t bytes = sizeof(*this) + ctrl_.capacity() * sizeof(int8_t) +
                   keys_.capacity() * sizeof(VertexId) +
                   lists_.capacity() * sizeof(PostingList) + sentinel_list_.HeapBytes();
    for (const auto& l : lists_) bytes += l.HeapBytes();
    return bytes;
  }

 private:
  static constexpr VertexId kEmptyKey = kNoVertex;
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  /// Fibonacci multiplicative hash: one 64-bit multiply, no dependency
  /// chain — the probe hot path is a multiply, a shift, and one 16-byte
  /// control-group compare. Bits 32.. pick the home group, the top 7 bits
  /// are the control fragment.
  static uint64_t Hash(VertexId key) {
    return static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ull;
  }

  /// Group-aligned home slot of `h`.
  size_t HomeGroup(uint64_t h) const {
    return (static_cast<size_t>(h >> 32) & mask_) & ~(flat_internal::kGroupWidth - 1);
  }

  /// Slot of `key` (not the sentinel), or kNoSlot.
  size_t FindSlot(VertexId key) const {
    if (num_keys_ == 0 || ctrl_.empty()) return kNoSlot;
    const uint64_t h = Hash(key);
    const int8_t h2 = flat_internal::H2Low(h);
    size_t g = HomeGroup(h);
    while (true) {
      const flat_internal::Group grp(ctrl_.data() + g);
      for (auto m = grp.Match(h2); m; m.Clear()) {
        const size_t i = g + m.Lane();
        if (keys_[i] == key) return i;
      }
      if (grp.Match(flat_internal::kCtrlEmpty)) return kNoSlot;
      g = (g + flat_internal::kGroupWidth) & mask_;
    }
  }

  /// First free slot on `h`'s probe chain (rehash path: keys are distinct,
  /// so no match scan is needed).
  size_t FindInsertSlot(uint64_t h) const {
    return flat_internal::FindFirstEmpty(ctrl_.data(), mask_, HomeGroup(h));
  }

  void Rehash(size_t new_cap) {
    std::vector<int8_t> old_ctrl = std::move(ctrl_);
    std::vector<VertexId> old_keys = std::move(keys_);
    std::vector<PostingList> old_lists = std::move(lists_);
    ctrl_.assign(new_cap, flat_internal::kCtrlEmpty);
    keys_.resize(new_cap);
    lists_.clear();
    lists_.resize(new_cap);
    mask_ = new_cap - 1;
    num_deleted_ = 0;  // tombstones are dropped, not migrated
    for (size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] < 0) continue;  // empty or tombstone
      const uint64_t h = Hash(old_keys[i]);
      const size_t j = FindInsertSlot(h);
      ctrl_[j] = flat_internal::H2Low(h);
      keys_[j] = old_keys[i];
      lists_[j] = std::move(old_lists[i]);
    }
  }

  std::vector<int8_t> ctrl_;        ///< kCtrlEmpty | H2 fragment, per slot.
  std::vector<VertexId> keys_;      ///< Parallel to ctrl_; valid where full.
  std::vector<PostingList> lists_;  ///< Parallel to ctrl_.
  size_t num_keys_ = 0;
  size_t num_deleted_ = 0;  ///< Tombstoned slots (count against load).
  size_t mask_ = 0;
  bool has_sentinel_ = false;
  PostingList sentinel_list_;  ///< Postings for the kNoVertex key itself.
};

/// Open-addressing row-dedup set for `Relation`: control bytes + row
/// indexes, 5 bytes per slot (vs. ~56 of a node-based unordered_set entry
/// and 13 of a stored-hash flat layout) — an insert touches one control
/// line and one row line. Full hashes are not stored: the 7-bit control
/// fragment prefilters (1/128 false-candidate rate) and `eq` confirms on
/// the relation's own row data; growth recomputes row hashes through the
/// caller-supplied `hash_of` (rows are cheap to rehash — a handful of ids).
/// Row indexes are unique, so `Erase`/`Repoint` locate an entry by its
/// index along the row's hash chain — the in-place retraction moves the
/// relation's last row into the erased one's slot and re-points its entry.
class FlatRowSet {
 public:
  /// `hash_of(row_idx)` recomputes a stored row's hash (growth only).
  template <typename HashFn>
  void Reserve(size_t n, HashFn hash_of) {
    const size_t cap = flat_internal::RoundUpCapacity(n);
    if (cap > ctrl_.size()) Rehash(cap, hash_of);
  }

  /// Inserts row `idx` with precomputed `hash` unless an equal row exists;
  /// `eq(existing_idx)` decides equality. Returns true when inserted.
  template <typename EqFn, typename HashFn>
  bool Insert(uint64_t hash, uint32_t idx, EqFn eq, HashFn hash_of) {
    const int8_t h2 = flat_internal::H2(hash);
    // Probe before the growth check: rejecting a duplicate row must not pay
    // a wasted table double at the load threshold. The first free slot on
    // the chain is remembered; only a truly empty slot proves absence.
    size_t insert_at = kNoSlot;
    if (!ctrl_.empty()) {
      size_t g = HomeGroup(hash);
      while (true) {
        const flat_internal::Group grp(ctrl_.data() + g);
        for (auto m = grp.Match(h2); m; m.Clear()) {
          if (eq(rows_[g + m.Lane()])) return false;
        }
        if (insert_at == kNoSlot) {
          if (auto f = grp.MatchEmpty()) insert_at = g + f.Lane();
        }
        if (grp.Match(flat_internal::kCtrlEmpty)) break;
        g = (g + flat_internal::kGroupWidth) & mask_;
      }
    }
    const bool reuse =
        insert_at != kNoSlot && ctrl_[insert_at] == flat_internal::kCtrlDeleted;
    if (reuse) {
      --num_deleted_;
    } else if (flat_internal::NeedsGrowth(size_, num_deleted_, ctrl_.size())) {
      Rehash(flat_internal::GrowthCapacity(size_, ctrl_.size()), hash_of);
      insert_at = flat_internal::FindFirstEmpty(ctrl_.data(), mask_, HomeGroup(hash));
    }
    ctrl_[insert_at] = h2;
    rows_[insert_at] = idx;
    ++size_;
    return true;
  }

  /// Row index of the entry equal per `eq`, or `kNotFound`.
  template <typename EqFn>
  uint32_t Find(uint64_t hash, EqFn eq) const {
    const size_t i = SlotWhere(hash, eq);
    return i == kNoSlot ? kNotFound : rows_[i];
  }

  /// Erases the entry of row `idx` (present; `hash` is that row's hash).
  void Erase(uint64_t hash, uint32_t idx) {
    const size_t i = SlotWhere(hash, [idx](uint32_t r) { return r == idx; });
    GS_DCHECK(i != kNoSlot);
    if (i == kNoSlot) return;
    ctrl_[i] = flat_internal::ErasedCtrl(ctrl_.data(), i);
    if (ctrl_[i] == flat_internal::kCtrlDeleted) ++num_deleted_;
    --size_;
  }

  /// Re-points the entry of row `from` (present; `hash` is that row's
  /// hash) to row index `to` — the row moved, its contents did not change.
  void Repoint(uint64_t hash, uint32_t from, uint32_t to) {
    const size_t i = SlotWhere(hash, [from](uint32_t r) { return r == from; });
    GS_DCHECK(i != kNoSlot);
    if (i != kNoSlot) rows_[i] = to;
  }

  size_t size() const { return size_; }

  void Clear() {
    std::fill(ctrl_.begin(), ctrl_.end(), flat_internal::kCtrlEmpty);
    size_ = 0;
    num_deleted_ = 0;
  }

  size_t MemoryBytes() const {
    return sizeof(*this) + ctrl_.capacity() * sizeof(int8_t) +
           rows_.capacity() * sizeof(uint32_t);
  }

  static constexpr uint32_t kNotFound = static_cast<uint32_t>(-1);

 private:
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  size_t HomeGroup(uint64_t h) const {
    return (static_cast<size_t>(h) & mask_) & ~(flat_internal::kGroupWidth - 1);
  }

  /// Slot along `hash`'s chain whose row index satisfies `pred`, or
  /// kNoSlot.
  template <typename Pred>
  size_t SlotWhere(uint64_t hash, Pred pred) const {
    if (size_ == 0) return kNoSlot;
    const int8_t h2 = flat_internal::H2(hash);
    size_t g = HomeGroup(hash);
    while (true) {
      const flat_internal::Group grp(ctrl_.data() + g);
      for (auto m = grp.Match(h2); m; m.Clear()) {
        if (pred(rows_[g + m.Lane()])) return g + m.Lane();
      }
      if (grp.Match(flat_internal::kCtrlEmpty)) return kNoSlot;
      g = (g + flat_internal::kGroupWidth) & mask_;
    }
  }

  template <typename HashFn>
  void Rehash(size_t new_cap, HashFn hash_of) {
    std::vector<int8_t> old_ctrl = std::move(ctrl_);
    std::vector<uint32_t> old_rows = std::move(rows_);
    ctrl_.assign(new_cap, flat_internal::kCtrlEmpty);
    rows_.resize(new_cap);
    mask_ = new_cap - 1;
    num_deleted_ = 0;  // tombstones are dropped, not migrated
    for (size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] < 0) continue;  // empty or tombstone
      const size_t j = flat_internal::FindFirstEmpty(
          ctrl_.data(), mask_, HomeGroup(hash_of(old_rows[i])));
      ctrl_[j] = old_ctrl[i];
      rows_[j] = old_rows[i];
    }
  }

  std::vector<int8_t> ctrl_;    ///< kCtrlEmpty | kCtrlDeleted | H2, per slot.
  std::vector<uint32_t> rows_;  ///< Parallel: row index in the relation.
  uint32_t size_ = 0;           ///< Row indexes are 32-bit, so counts are too.
  uint32_t num_deleted_ = 0;    ///< Tombstoned slots (count against load).
  size_t mask_ = 0;
};

/// Generic open-addressing map for the colder index shapes (JoinCache keys,
/// trie rootInd / node index, the baselines' inverted indexes). Keys must be
/// copyable and equality-comparable; values move on rehash, so stable-address
/// values belong behind unique_ptr.
///
/// Erase support (query-lifecycle GC): `Erase` tombstones the slot so probe
/// chains through it stay intact; tombstones are reused by later inserts and
/// count against the load factor until `Compact` rehashes them away.
/// `Compact` also shrinks capacity to fit the live entries, so `MemoryBytes`
/// observably drops after a removal wave — call it once per removal batch,
/// not per erase.
///
/// Pointer stability: unlike the node-based std maps this replaces, pointers
/// returned by Find/GetOrCreate are into slot storage and are invalidated by
/// the next insertion, erase, or compaction (rehash moves every slot). Copy
/// out what you need before mutating the map.
template <typename K, typename V, typename Hash, typename Eq = std::equal_to<K>>
class FlatMap {
 public:
  V& GetOrCreate(const K& key) {
    const uint64_t h = Hash{}(key);
    const int8_t h2 = flat_internal::H2(h);
    // Probe before the growth check: hitting an existing key must neither
    // rehash (slot pointers stay valid) nor pay a wasted table double. The
    // first tombstone on the chain is remembered for reuse; only a truly
    // empty slot proves the key absent.
    size_t insert_at = static_cast<size_t>(-1);
    bool reuse_tombstone = false;
    if (!ctrl_.empty()) {
      size_t g = HomeGroup(h);
      while (true) {
        const flat_internal::Group grp(ctrl_.data() + g);
        for (auto m = grp.Match(h2); m; m.Clear()) {
          const size_t i = g + m.Lane();
          if (slots_[i].hash == h && Eq{}(slots_[i].key, key)) return slots_[i].value;
        }
        if (!reuse_tombstone) {
          if (auto d = grp.Match(flat_internal::kCtrlDeleted)) {
            insert_at = g + d.Lane();
            reuse_tombstone = true;
          }
        }
        if (auto e = grp.Match(flat_internal::kCtrlEmpty)) {
          if (!reuse_tombstone) insert_at = g + e.Lane();
          break;
        }
        g = (g + flat_internal::kGroupWidth) & mask_;
      }
    }
    if (ctrl_.empty() ||
        (!reuse_tombstone && (size_ + num_deleted_ + 1) * 8 > ctrl_.size() * 7)) {
      Rehash(ctrl_.empty() ? flat_internal::kGroupWidth : ctrl_.size() * 2);
      insert_at = flat_internal::FindFirstEmpty(ctrl_.data(), mask_, HomeGroup(h));
      reuse_tombstone = false;
    }
    if (reuse_tombstone) --num_deleted_;
    ctrl_[insert_at] = h2;
    slots_[insert_at].hash = h;
    slots_[insert_at].key = key;
    ++size_;
    return slots_[insert_at].value;
  }

  V* Find(const K& key) {
    return const_cast<V*>(static_cast<const FlatMap*>(this)->Find(key));
  }
  const V* Find(const K& key) const {
    if (size_ == 0) return nullptr;
    const uint64_t h = Hash{}(key);
    const int8_t h2 = flat_internal::H2(h);
    size_t g = HomeGroup(h);
    while (true) {
      const flat_internal::Group grp(ctrl_.data() + g);
      for (auto m = grp.Match(h2); m; m.Clear()) {
        const size_t i = g + m.Lane();
        if (slots_[i].hash == h && Eq{}(slots_[i].key, key)) return &slots_[i].value;
      }
      // Tombstones must not terminate the probe, so match the exact empty
      // byte (same one-compare cost as the sign-bit check).
      if (grp.Match(flat_internal::kCtrlEmpty)) return nullptr;
      g = (g + flat_internal::kGroupWidth) & mask_;
    }
  }

  bool Contains(const K& key) const { return Find(key) != nullptr; }

  /// Erases `key`'s entry (the value is destroyed in place); the slot
  /// becomes a tombstone until the next Compact/rehash. Returns true when
  /// the key was present.
  bool Erase(const K& key) {
    if (size_ == 0) return false;
    const uint64_t h = Hash{}(key);
    const int8_t h2 = flat_internal::H2(h);
    size_t g = HomeGroup(h);
    while (true) {
      const flat_internal::Group grp(ctrl_.data() + g);
      for (auto m = grp.Match(h2); m; m.Clear()) {
        const size_t i = g + m.Lane();
        if (slots_[i].hash == h && Eq{}(slots_[i].key, key)) {
          ctrl_[i] = flat_internal::kCtrlDeleted;
          slots_[i] = Slot{};
          --size_;
          ++num_deleted_;
          return true;
        }
      }
      if (grp.Match(flat_internal::kCtrlEmpty)) return false;
      g = (g + flat_internal::kGroupWidth) & mask_;
    }
  }

  /// Rehashes tombstones away and shrinks capacity to fit the live entries
  /// (an empty map releases all storage). Invalidates every slot pointer.
  void Compact() {
    if (size_ == 0) {
      std::vector<int8_t>().swap(ctrl_);
      std::vector<Slot>().swap(slots_);
      mask_ = 0;
      num_deleted_ = 0;
      return;
    }
    Rehash(flat_internal::RoundUpCapacity(size_));
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Reserve(size_t n) {
    const size_t cap = flat_internal::RoundUpCapacity(n);
    if (cap > ctrl_.size()) Rehash(cap);
  }

  void Clear() {
    ctrl_.clear();
    slots_.clear();
    size_ = 0;
    mask_ = 0;
    num_deleted_ = 0;
  }

  /// `fn(const K&, const V&)` / `fn(const K&, V&)` over every entry.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t i = 0; i < ctrl_.size(); ++i)
      if (ctrl_[i] >= 0) fn(slots_[i].key, slots_[i].value);
  }
  template <typename Fn>
  void ForEachMutable(Fn fn) {
    for (size_t i = 0; i < ctrl_.size(); ++i)
      if (ctrl_[i] >= 0) fn(slots_[i].key, slots_[i].value);
  }

  /// Slot-array bytes only; value-owned heap is the caller's to account.
  size_t MemoryBytes() const {
    return sizeof(*this) + ctrl_.capacity() * sizeof(int8_t) +
           slots_.capacity() * sizeof(Slot);
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    K key{};
    V value{};
  };

  size_t HomeGroup(uint64_t h) const {
    return (static_cast<size_t>(h) & mask_) & ~(flat_internal::kGroupWidth - 1);
  }

  void Rehash(size_t new_cap) {
    std::vector<int8_t> old_ctrl = std::move(ctrl_);
    std::vector<Slot> old = std::move(slots_);
    ctrl_.assign(new_cap, flat_internal::kCtrlEmpty);
    slots_.clear();
    slots_.resize(new_cap);
    mask_ = new_cap - 1;
    num_deleted_ = 0;  // tombstones are dropped, not migrated
    for (size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] < 0) continue;  // empty or tombstone
      const size_t j =
          flat_internal::FindFirstEmpty(ctrl_.data(), mask_, HomeGroup(old[i].hash));
      ctrl_[j] = old_ctrl[i];
      slots_[j] = std::move(old[i]);
    }
  }

  std::vector<int8_t> ctrl_;  ///< kCtrlEmpty | kCtrlDeleted | H2, per slot.
  std::vector<Slot> slots_;   ///< Parallel to ctrl_; valid where full.
  size_t size_ = 0;
  size_t mask_ = 0;
  size_t num_deleted_ = 0;    ///< Tombstoned slots (count against load).
};

/// Hash functor for VertexId keys in FlatMap.
struct VertexIdHash {
  size_t operator()(VertexId v) const { return Mix64(v); }
};

/// Stack-first row scratch for the join kernels: join outputs are path rows
/// (arity = path length + 2, almost always tiny), so a per-call heap
/// std::vector is pure overhead. Falls back to the heap above kInline ids.
class RowScratch {
 public:
  explicit RowScratch(size_t n) {
    if (n <= kInline) {
      data_ = buf_;
    } else {
      heap_ = std::make_unique<VertexId[]>(n);
      data_ = heap_.get();
    }
  }
  RowScratch(const RowScratch&) = delete;
  RowScratch& operator=(const RowScratch&) = delete;

  VertexId* data() { return data_; }
  VertexId& operator[](size_t i) { return data_[i]; }

 private:
  static constexpr size_t kInline = 16;
  VertexId* data_;
  VertexId buf_[kInline];
  std::unique_ptr<VertexId[]> heap_;
};

}  // namespace gstream

#endif  // GSTREAM_COMMON_FLAT_MAP_H_
