#include "matview/join.h"

#include <algorithm>

#include "common/flat_map.h"
#include "common/logging.h"

namespace gstream {

namespace {

/// Transient build-phase table: key column value -> row indexes in range.
/// Flat open-addressing postings, pre-sized from the build range so the
/// build loop is allocation-free apart from high-fanout spills.
FlatPostingMap BuildTransient(RowRange range, uint32_t col) {
  FlatPostingMap table;
  table.Reserve(range.size());
  for (size_t i = range.begin; i < range.end; ++i)
    table.Add(range.rel->At(i, col), static_cast<uint32_t>(i));
  return table;
}

/// Below this delta width, scanning the window beats probing an index and
/// filtering its postings to the window (single-update deltas are width 1).
constexpr size_t kSmallDeltaScan = 4;

}  // namespace

void ExtendRight(RowRange prefix, const Relation& base, const HashIndex* base_src_index,
                 Relation& out) {
  if (prefix.empty()) return;
  const uint32_t p_arity = prefix.rel->arity();
  GS_DCHECK(out.arity() == p_arity + 1);
  GS_DCHECK(base.arity() == 2);
  RowScratch row(p_arity + 1);

  if (base_src_index != nullptr) {
    // Cached path: probe the maintained index per prefix row.
    for (size_t i = prefix.begin; i < prefix.end; ++i) {
      const VertexId* pr = prefix.rel->Row(i);
      RowIdSpan hits = base_src_index->Probe(pr[p_arity - 1]);
      if (hits.empty()) continue;
      std::copy(pr, pr + p_arity, row.data());
      for (uint32_t b : hits) {
        row[p_arity] = base.At(b, 1);
        out.Append(row.data());
      }
    }
    return;
  }

  // Build-and-discard path (paper: hash join, build on the smaller table —
  // the delta — probe by scanning the larger base view).
  FlatPostingMap table = BuildTransient(prefix, p_arity - 1);
  for (size_t b = 0; b < base.NumRows(); ++b) {
    RowIdSpan hits = table.Probe(base.At(b, 0));
    if (hits.empty()) continue;
    const VertexId tail = base.At(b, 1);
    for (uint32_t i : hits) {
      const VertexId* pr = prefix.rel->Row(i);
      std::copy(pr, pr + p_arity, row.data());
      row[p_arity] = tail;
      out.Append(row.data());
    }
  }
}

void ExtendRightSingle(RowRange prefix, VertexId src, VertexId dst,
                       const HashIndex* prefix_last_index, Relation& out,
                       const RetiredRowMap* retired) {
  if (prefix.empty()) return;
  const uint32_t p_arity = prefix.rel->arity();
  GS_DCHECK(out.arity() == p_arity + 1);
  RowScratch row(p_arity + 1);

  auto emit = [&](size_t i) {
    if (retired != nullptr && retired->Contains(static_cast<uint32_t>(i))) return;
    const VertexId* pr = prefix.rel->Row(i);
    std::copy(pr, pr + p_arity, row.data());
    row[p_arity] = dst;
    out.Append(row.data());
  };

  // Narrow windows (single-update deltas) are cheaper to scan than to probe:
  // the cached path must never do more work than the scan path there.
  if (prefix_last_index != nullptr && prefix.size() > kSmallDeltaScan) {
    RowIdSpan hits = prefix_last_index->Probe(src);
    // Postings are ascending row ids; binary-search the window instead of
    // filtering every hit through [begin, end).
    const uint32_t* lo =
        std::lower_bound(hits.begin(), hits.end(), static_cast<uint32_t>(prefix.begin));
    for (const uint32_t* it = lo; it != hits.end() && *it < prefix.end; ++it)
      emit(*it);
    return;
  }
  for (size_t i = prefix.begin; i < prefix.end; ++i)
    if (prefix.rel->At(i, p_arity - 1) == src) emit(i);
}

void ExtendLeft(RowRange suffix, const Relation& base, const HashIndex* base_dst_index,
                Relation& out) {
  if (suffix.empty()) return;
  const uint32_t s_arity = suffix.rel->arity();
  GS_DCHECK(out.arity() == s_arity + 1);
  GS_DCHECK(base.arity() == 2);
  RowScratch row(s_arity + 1);

  auto emit = [&](size_t s, size_t b) {
    row[0] = base.At(b, 0);
    const VertexId* sr = suffix.rel->Row(s);
    std::copy(sr, sr + s_arity, row.data() + 1);
    out.Append(row.data());
  };

  if (base_dst_index != nullptr) {
    for (size_t s = suffix.begin; s < suffix.end; ++s)
      for (uint32_t b : base_dst_index->Probe(suffix.rel->At(s, 0))) emit(s, b);
    return;
  }
  FlatPostingMap table = BuildTransient(suffix, 0);
  for (size_t b = 0; b < base.NumRows(); ++b) {
    RowIdSpan hits = table.Probe(base.At(b, 1));
    for (uint32_t s : hits) emit(s, b);
  }
}

void JoinConcat(RowRange a, RowRange b,
                const std::vector<std::pair<uint32_t, uint32_t>>& keys,
                const HashIndex* b_first_key_index, Relation& out) {
  if (a.empty() || b.empty()) return;
  const uint32_t a_arity = a.rel->arity();
  const uint32_t b_arity = b.rel->arity();
  GS_DCHECK(out.arity() == a_arity + b_arity);
  RowScratch row(a_arity + b_arity);

  auto matches = [&](size_t ia, size_t ib) {
    for (const auto& [ca, cb] : keys)
      if (a.rel->At(ia, ca) != b.rel->At(ib, cb)) return false;
    return true;
  };
  auto emit = [&](size_t ia, size_t ib) {
    const VertexId* ra = a.rel->Row(ia);
    const VertexId* rb = b.rel->Row(ib);
    std::copy(ra, ra + a_arity, row.data());
    std::copy(rb, rb + b_arity, row.data() + a_arity);
    out.Append(row.data());
  };

  if (keys.empty()) {  // cross product
    out.Reserve(out.NumRows() + a.size() * b.size());
    for (size_t ia = a.begin; ia < a.end; ++ia)
      for (size_t ib = b.begin; ib < b.end; ++ib) emit(ia, ib);
    return;
  }

  // An equi-join emits at most one row per matching pair; seed the output
  // with room for the smaller side. The reserve must stay conservative:
  // Relation::MemoryBytes() is capacity-based and feeds the paper's
  // transient-memory accounting, so over-reserving a selective join would
  // report phantom bytes.
  out.Reserve(out.NumRows() + std::min(a.size(), b.size()));

  if (b_first_key_index != nullptr) {
    GS_DCHECK(b_first_key_index->column() == keys[0].second);
    for (size_t ia = a.begin; ia < a.end; ++ia) {
      RowIdSpan hits = b_first_key_index->Probe(a.rel->At(ia, keys[0].first));
      const uint32_t* lo =
          std::lower_bound(hits.begin(), hits.end(), static_cast<uint32_t>(b.begin));
      for (const uint32_t* it = lo; it != hits.end() && *it < b.end; ++it)
        if (matches(ia, *it)) emit(ia, *it);
    }
    return;
  }

  // Build on b's first key column, probe with a.
  FlatPostingMap table = BuildTransient(b, keys[0].second);
  for (size_t ia = a.begin; ia < a.end; ++ia) {
    RowIdSpan hits = table.Probe(a.rel->At(ia, keys[0].first));
    for (uint32_t ib : hits)
      if (matches(ia, ib)) emit(ia, ib);
  }
}

void ExtendRightDelta(DeltaBatch prefix, const Relation& base,
                      const HashIndex* base_src_index, RowTags base_tags,
                      Relation& out) {
  if (prefix.rows.empty()) return;
  const RowRange range = prefix.rows;
  const uint32_t p_arity = range.rel->arity();
  GS_DCHECK(out.has_provenance() && out.arity() == p_arity + 1);
  GS_DCHECK(base.arity() == 2);
  RowScratch row(p_arity + 1);

  auto emit = [&](size_t p, size_t b) {
    const VertexId* pr = range.rel->Row(p);
    std::copy(pr, pr + p_arity, row.data());
    row[p_arity] = base.At(b, 1);
    out.AppendTagged(row.data(),
                     std::max(prefix.tags.TagOf(p), base_tags.TagOf(b)));
  };

  if (base_src_index != nullptr) {
    for (size_t i = range.begin; i < range.end; ++i)
      for (uint32_t b : base_src_index->Probe(range.rel->At(i, p_arity - 1)))
        emit(i, b);
    return;
  }
  // Build on the (smaller) tagged batch, probe by scanning the base view —
  // once per window instead of once per update.
  FlatPostingMap table = BuildTransient(range, p_arity - 1);
  for (size_t b = 0; b < base.NumRows(); ++b) {
    RowIdSpan hits = table.Probe(base.At(b, 0));
    for (uint32_t i : hits) emit(i, b);
  }
}

void ExtendLeftDelta(DeltaBatch suffix, const Relation& base,
                     const HashIndex* base_dst_index, RowTags base_tags,
                     Relation& out) {
  if (suffix.rows.empty()) return;
  const RowRange range = suffix.rows;
  const uint32_t s_arity = range.rel->arity();
  GS_DCHECK(out.has_provenance() && out.arity() == s_arity + 1);
  GS_DCHECK(base.arity() == 2);
  RowScratch row(s_arity + 1);

  auto emit = [&](size_t s, size_t b) {
    row[0] = base.At(b, 0);
    const VertexId* sr = range.rel->Row(s);
    std::copy(sr, sr + s_arity, row.data() + 1);
    out.AppendTagged(row.data(),
                     std::max(suffix.tags.TagOf(s), base_tags.TagOf(b)));
  };

  if (base_dst_index != nullptr) {
    for (size_t s = range.begin; s < range.end; ++s)
      for (uint32_t b : base_dst_index->Probe(range.rel->At(s, 0))) emit(s, b);
    return;
  }
  FlatPostingMap table = BuildTransient(range, 0);
  for (size_t b = 0; b < base.NumRows(); ++b) {
    RowIdSpan hits = table.Probe(base.At(b, 1));
    for (uint32_t s : hits) emit(s, b);
  }
}

void JoinConcatDelta(DeltaBatch a, RowRange b, RowTags b_tags,
                     const std::vector<std::pair<uint32_t, uint32_t>>& keys,
                     const HashIndex* b_first_key_index, Relation& out) {
  if (a.rows.empty() || b.empty()) return;
  const RowRange ar = a.rows;
  const uint32_t a_arity = ar.rel->arity();
  const uint32_t b_arity = b.rel->arity();
  GS_DCHECK(out.has_provenance() && out.arity() == a_arity + b_arity);
  RowScratch row(a_arity + b_arity);

  auto matches = [&](size_t ia, size_t ib) {
    for (const auto& [ca, cb] : keys)
      if (ar.rel->At(ia, ca) != b.rel->At(ib, cb)) return false;
    return true;
  };
  auto emit = [&](size_t ia, size_t ib) {
    const VertexId* ra = ar.rel->Row(ia);
    const VertexId* rb = b.rel->Row(ib);
    std::copy(ra, ra + a_arity, row.data());
    std::copy(rb, rb + b_arity, row.data() + a_arity);
    out.AppendTagged(row.data(), std::max(a.tags.TagOf(ia), b_tags.TagOf(ib)));
  };

  if (keys.empty()) {  // cross product
    out.Reserve(out.NumRows() + ar.size() * b.size());
    for (size_t ia = ar.begin; ia < ar.end; ++ia)
      for (size_t ib = b.begin; ib < b.end; ++ib) emit(ia, ib);
    return;
  }
  out.Reserve(out.NumRows() + std::min(ar.size(), b.size()));

  if (b_first_key_index != nullptr) {
    GS_DCHECK(b_first_key_index->column() == keys[0].second);
    for (size_t ia = ar.begin; ia < ar.end; ++ia) {
      RowIdSpan hits = b_first_key_index->Probe(ar.rel->At(ia, keys[0].first));
      const uint32_t* lo =
          std::lower_bound(hits.begin(), hits.end(), static_cast<uint32_t>(b.begin));
      for (const uint32_t* it = lo; it != hits.end() && *it < b.end; ++it)
        if (matches(ia, *it)) emit(ia, *it);
    }
    return;
  }

  FlatPostingMap table = BuildTransient(b, keys[0].second);
  for (size_t ia = ar.begin; ia < ar.end; ++ia) {
    RowIdSpan hits = table.Probe(ar.rel->At(ia, keys[0].first));
    for (uint32_t ib : hits)
      if (matches(ia, ib)) emit(ia, ib);
  }
}

}  // namespace gstream
