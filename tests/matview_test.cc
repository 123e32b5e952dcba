#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "matview/binding.h"
#include "matview/hash_index.h"
#include "matview/join.h"
#include "matview/join_cache.h"
#include "matview/relation.h"

namespace gstream {
namespace {

Relation MakeRel(uint32_t arity, std::initializer_list<std::vector<VertexId>> rows) {
  Relation r(arity);
  for (const auto& row : rows) r.Append(row);
  return r;
}

TEST(Relation, AppendDeduplicates) {
  Relation r(2);
  EXPECT_TRUE(r.Append({1, 2}));
  EXPECT_FALSE(r.Append({1, 2}));
  EXPECT_TRUE(r.Append({2, 1}));
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST(Relation, RowAccessors) {
  Relation r(3);
  r.Append({7, 8, 9});
  EXPECT_EQ(r.At(0, 0), 7u);
  EXPECT_EQ(r.At(0, 2), 9u);
  EXPECT_EQ(r.Row(0)[1], 8u);
}

TEST(Relation, LargeDedupStress) {
  Relation r(2);
  for (VertexId i = 0; i < 1000; ++i) r.Append({i % 100, i % 50});
  // Distinct pairs: (i%100, i%50) has period lcm(100,50)=100.
  EXPECT_EQ(r.NumRows(), 100u);
}

TEST(HashIndex, ProbeFindsAllRows) {
  Relation r = MakeRel(2, {{1, 10}, {2, 20}, {1, 30}});
  HashIndex idx(&r, 0);
  EXPECT_EQ(idx.Probe(1).size(), 2u);
  EXPECT_EQ(idx.Probe(2).size(), 1u);
  EXPECT_TRUE(idx.Probe(99).empty());
}

TEST(HashIndex, CatchUpIndexesNewRows) {
  Relation r(2);
  r.Append({1, 10});
  HashIndex idx(&r, 0);
  r.Append({1, 20});
  EXPECT_EQ(idx.Probe(1).size(), 1u);  // stale until caught up
  idx.CatchUp();
  EXPECT_EQ(idx.Probe(1).size(), 2u);
}

TEST(HashIndex, IndexesChosenColumn) {
  Relation r = MakeRel(2, {{1, 10}, {2, 10}});
  HashIndex idx(&r, 1);
  EXPECT_EQ(idx.Probe(10).size(), 2u);
  EXPECT_TRUE(idx.Probe(1).empty());
}

TEST(ExtendRight, JoinsOnTailColumn) {
  Relation prefix = MakeRel(2, {{1, 2}, {3, 4}});
  Relation base = MakeRel(2, {{2, 5}, {2, 6}, {4, 7}, {9, 9}});
  Relation out(3);
  ExtendRight(AllRows(prefix), base, nullptr, out);
  EXPECT_EQ(out.NumRows(), 3u);  // (1,2,5) (1,2,6) (3,4,7)
}

TEST(ExtendRight, IndexedAndScanAgree) {
  Relation prefix = MakeRel(2, {{1, 2}, {3, 2}, {5, 6}});
  Relation base = MakeRel(2, {{2, 5}, {6, 1}, {2, 9}});
  Relation scan_out(3), idx_out(3);
  ExtendRight(AllRows(prefix), base, nullptr, scan_out);
  HashIndex idx(&base, 0);
  ExtendRight(AllRows(prefix), base, &idx, idx_out);
  EXPECT_EQ(scan_out.NumRows(), idx_out.NumRows());
}

TEST(ExtendRight, RespectsRowRange) {
  Relation prefix = MakeRel(2, {{1, 2}, {3, 2}});
  Relation base = MakeRel(2, {{2, 5}});
  Relation out(3);
  ExtendRight(RowRange{&prefix, 1, 2}, base, nullptr, out);  // only row (3,2)
  ASSERT_EQ(out.NumRows(), 1u);
  EXPECT_EQ(out.At(0, 0), 3u);
}

TEST(ExtendRightSingle, JoinsOneTuple) {
  Relation prefix = MakeRel(2, {{1, 2}, {3, 2}, {4, 5}});
  Relation out(3);
  ExtendRightSingle(AllRows(prefix), /*src=*/2, /*dst=*/8, nullptr, out);
  EXPECT_EQ(out.NumRows(), 2u);
  EXPECT_EQ(out.At(0, 2), 8u);
}

TEST(ExtendRightSingle, IndexedVariantHonorsRange) {
  Relation prefix = MakeRel(2, {{1, 2}, {3, 2}});
  HashIndex idx(&prefix, 1);
  Relation out(3);
  ExtendRightSingle(RowRange{&prefix, 0, 1}, 2, 8, &idx, out);
  EXPECT_EQ(out.NumRows(), 1u);  // second row excluded by range
}

TEST(ExtendLeft, PrependsSource) {
  Relation suffix = MakeRel(2, {{2, 7}, {9, 9}});
  Relation base = MakeRel(2, {{1, 2}, {5, 2}});
  Relation out(3);
  ExtendLeft(AllRows(suffix), base, nullptr, out);
  EXPECT_EQ(out.NumRows(), 2u);  // (1,2,7) (5,2,7)
  EXPECT_EQ(out.At(0, 1), 2u);
  EXPECT_EQ(out.At(0, 2), 7u);
}

TEST(ExtendLeft, IndexedAndScanAgree) {
  Relation suffix = MakeRel(2, {{2, 7}, {3, 8}});
  Relation base = MakeRel(2, {{1, 2}, {5, 3}, {6, 3}});
  Relation a(3), b(3);
  ExtendLeft(AllRows(suffix), base, nullptr, a);
  HashIndex idx(&base, 1);
  ExtendLeft(AllRows(suffix), base, &idx, b);
  EXPECT_EQ(a.NumRows(), b.NumRows());
  EXPECT_EQ(a.NumRows(), 3u);
}

TEST(JoinConcat, EquiJoinOnKeys) {
  Relation a = MakeRel(2, {{1, 2}, {3, 4}});
  Relation b = MakeRel(2, {{2, 9}, {4, 8}, {5, 7}});
  Relation out(4);
  JoinConcat(AllRows(a), AllRows(b), {{1, 0}}, nullptr, out);
  EXPECT_EQ(out.NumRows(), 2u);
}

TEST(JoinConcat, MultiKeyVerifiesAllPairs) {
  Relation a = MakeRel(2, {{1, 2}});
  Relation b = MakeRel(2, {{1, 2}, {1, 3}});
  Relation out(4);
  JoinConcat(AllRows(a), AllRows(b), {{0, 0}, {1, 1}}, nullptr, out);
  EXPECT_EQ(out.NumRows(), 1u);
}

TEST(JoinConcat, EmptyKeysIsCrossProduct) {
  Relation a = MakeRel(1, {{1}, {2}});
  Relation b = MakeRel(1, {{7}, {8}, {9}});
  Relation out(2);
  JoinConcat(AllRows(a), AllRows(b), {}, nullptr, out);
  EXPECT_EQ(out.NumRows(), 6u);
}

TEST(JoinCache, ReturnsSameIndexAndCatchesUp) {
  JoinCache cache;
  Relation r(2);
  r.Append({1, 2});
  HashIndex* a = cache.Get(&r, 0);
  EXPECT_EQ(a->Probe(1).size(), 1u);
  r.Append({1, 3});
  HashIndex* b = cache.Get(&r, 0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->Probe(1).size(), 2u);
  EXPECT_EQ(cache.NumIndexes(), 1u);
  cache.Get(&r, 1);
  EXPECT_EQ(cache.NumIndexes(), 2u);
}

// ---- In-place retraction (Relation::Erase + patched indexes) -------------

using RowModel = std::set<std::vector<VertexId>>;

RowModel RowsOf(const Relation& r) {
  RowModel rows;
  for (size_t i = 0; i < r.NumRows(); ++i)
    rows.emplace(r.Row(i), r.Row(i) + r.arity());
  return rows;
}

/// Row ids whose column `col` equals `key`, ascending — what every index
/// probe must return.
std::vector<uint32_t> ScanPostings(const Relation& r, uint32_t col, VertexId key) {
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < r.NumRows(); ++i)
    if (r.At(i, col) == key) ids.push_back(static_cast<uint32_t>(i));
  return ids;
}

void ExpectProbesLikeScan(const HashIndex& idx, const Relation& r, VertexId universe,
                          const char* what) {
  ASSERT_EQ(idx.indexed_rows(), r.NumRows()) << what;
  for (VertexId key = 0; key < universe; ++key) {
    const RowIdSpan span = idx.Probe(key);
    const std::vector<uint32_t> want = ScanPostings(r, idx.column(), key);
    ASSERT_TRUE(std::is_sorted(span.begin(), span.end())) << what << " key " << key;
    ASSERT_EQ(std::vector<uint32_t>(span.begin(), span.end()), want)
        << what << " column " << idx.column() << " key " << key;
  }
}

TEST(Relation, RandomAppendEraseMatchesSetModel) {
  constexpr VertexId kUniverse = 6;  // small: duplicates and re-appends abound
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    Relation r(3);
    RowModel model;
    const auto random_row = [&] {
      return std::vector<VertexId>{static_cast<VertexId>(rng.Next(kUniverse)),
                                   static_cast<VertexId>(rng.Next(kUniverse)),
                                   static_cast<VertexId>(rng.Next(kUniverse))};
    };
    for (int step = 0; step < 6'000; ++step) {
      if (r.Empty() || rng.Next(100) < 55) {
        // A live row is rejected as a duplicate; an absent (possibly
        // erased) one lands.
        const std::vector<VertexId> row = random_row();
        ASSERT_EQ(r.Append(row), model.insert(row).second) << "seed " << seed;
      } else {
        const size_t i = rng.Next(r.NumRows());
        const std::vector<VertexId> gone(r.Row(i), r.Row(i) + 3);
        r.Erase(i);
        ASSERT_EQ(model.erase(gone), 1u);
        EXPECT_EQ(r.Find(gone.data()), Relation::kNoRow);
        if (rng.Next(4) == 0) {
          // Erased rows can come straight back.
          ASSERT_TRUE(r.Append(gone));
          model.insert(gone);
        }
      }
      ASSERT_EQ(r.NumRows(), model.size()) << "seed " << seed;
    }
    EXPECT_EQ(RowsOf(r), model);
    for (const std::vector<VertexId>& row : model) {
      const size_t i = r.Find(row.data());
      ASSERT_NE(i, Relation::kNoRow);
      EXPECT_TRUE(std::equal(row.begin(), row.end(), r.Row(i)));
      EXPECT_FALSE(r.Append(row));
    }
  }
}

TEST(Relation, EraseMovesOnlyTheLastRow) {
  Relation r = MakeRel(2, {{1, 10}, {2, 20}, {3, 30}, {4, 40}});
  const uint64_t generation = r.generation();
  r.Erase(1);
  ASSERT_EQ(r.NumRows(), 3u);
  EXPECT_EQ(r.At(0, 0), 1u);  // untouched
  EXPECT_EQ(r.At(1, 0), 4u);  // the last row took the hole
  EXPECT_EQ(r.At(2, 0), 3u);  // untouched
  r.Erase(2);                 // erasing the last row moves nothing
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.At(1, 0), 4u);
  EXPECT_EQ(r.erasures(), 2u);
  EXPECT_EQ(r.generation(), generation);  // erases are not clears
}

TEST(Relation, ClearResetsRows) {
  Relation r = MakeRel(2, {{1, 10}, {2, 20}});
  r.Clear();
  EXPECT_TRUE(r.Empty());
  EXPECT_TRUE(r.Append({1, 10}));  // re-insert after clear works
  r.Clear();
  uint64_t gen = r.generation();
  r.Clear();  // clearing empty is a no-op
  EXPECT_EQ(r.generation(), gen);
}

TEST(HashIndex, PatchEraseKeepsIndexCurrentWithoutCatchUp) {
  Relation r = MakeRel(2, {{1, 10}, {2, 20}, {1, 30}, {2, 40}});
  HashIndex idx(&r, 0);
  idx.PatchErase(0);  // {2,40} moves into row 0
  r.Erase(0);
  // Patched: already covers every row, no CatchUp needed.
  EXPECT_EQ(idx.indexed_rows(), r.NumRows());
  ExpectProbesLikeScan(idx, r, 3, "patched");
  // A row appended after the last CatchUp is not indexed yet; erasing an
  // indexed row moves it in, and the patch indexes it at its new id.
  r.Append({1, 50});
  idx.PatchErase(1);
  r.Erase(1);
  EXPECT_EQ(idx.indexed_rows(), r.NumRows());
  ExpectProbesLikeScan(idx, r, 3, "patched with a lagging row");
}

TEST(HashIndex, UnpatchedIndexRebuildsAfterErase) {
  Relation r = MakeRel(2, {{1, 10}, {2, 20}, {1, 30}});
  HashIndex idx(&r, 0);
  r.Erase(0);  // no PatchErase: the index must not trust its postings
  idx.CatchUp();
  ExpectProbesLikeScan(idx, r, 3, "rebuilt");
  EXPECT_EQ(r.At(idx.Probe(2)[0], 1), 20u);
}

TEST(JoinCache, PatchedAndFreshIndexesProbeLikeScan) {
  // Indexes built before the first erase and patched through every erase
  // (the engines' OnRowErase path), indexes the patches never reach (the
  // rebuild safety net), and indexes built fresh at the end must all probe
  // exactly like a scan, with ascending postings. Gets happen at random, so
  // erases also hit indexes lagging behind appended rows.
  constexpr VertexId kUniverse = 9;
  for (uint64_t seed : {5u, 6u, 7u}) {
    Rng rng(seed);
    Relation r(3);
    JoinCache patched;
    JoinCache unpatched;
    for (int i = 0; i < 40; ++i)
      r.Append({static_cast<VertexId>(rng.Next(kUniverse)),
                static_cast<VertexId>(rng.Next(kUniverse)),
                static_cast<VertexId>(rng.Next(kUniverse))});
    for (uint32_t col = 0; col < 3; ++col) {
      patched.Get(&r, col);
      unpatched.Get(&r, col);
    }
    for (int step = 0; step < 3'000; ++step) {
      const uint64_t roll = rng.Next(100);
      if (r.Empty() || roll < 50) {
        r.Append({static_cast<VertexId>(rng.Next(kUniverse)),
                  static_cast<VertexId>(rng.Next(kUniverse)),
                  static_cast<VertexId>(rng.Next(kUniverse))});
      } else if (roll < 90) {
        const size_t i = rng.Next(r.NumRows());
        patched.PatchErase(&r, i);
        r.Erase(i);
      } else {
        patched.Get(&r, static_cast<uint32_t>(rng.Next(3)));
      }
    }
    for (uint32_t col = 0; col < 3; ++col) {
      ExpectProbesLikeScan(*patched.Get(&r, col), r, kUniverse, "patched");
      ExpectProbesLikeScan(*unpatched.Get(&r, col), r, kUniverse, "unpatched");
      JoinCache fresh;
      ExpectProbesLikeScan(*fresh.Get(&r, col), r, kUniverse, "fresh");
    }
  }
}

TEST(PathBindingSpec, NoRepeatsPassthrough) {
  auto spec = PathBindingSpec::For({0, 1, 2});
  EXPECT_FALSE(spec.has_repeats());
  EXPECT_EQ(spec.schema, (std::vector<uint32_t>{0, 1, 2}));
}

TEST(PathBindingSpec, RepeatsBecomeEqualityChecks) {
  auto spec = PathBindingSpec::For({0, 1, 0});  // cycle a->b->a
  EXPECT_TRUE(spec.has_repeats());
  EXPECT_EQ(spec.schema, (std::vector<uint32_t>{0, 1}));
  ASSERT_EQ(spec.eq_checks.size(), 1u);
  EXPECT_EQ(spec.eq_checks[0], (std::pair<uint32_t, uint32_t>{0, 2}));
}

TEST(PathRowsToBindings, FiltersCycleViolations) {
  Relation view = MakeRel(3, {{1, 2, 1}, {1, 2, 3}});
  auto spec = PathBindingSpec::For({0, 1, 0});
  auto bindings = PathRowsToBindings(AllRows(view), spec);
  ASSERT_EQ(bindings.rows->NumRows(), 1u);  // only (1,2,1) closes the cycle
  EXPECT_EQ(bindings.rows->At(0, 0), 1u);
  EXPECT_EQ(bindings.rows->At(0, 1), 2u);
}

TEST(JoinBindingRanges, NaturalJoinOnSharedVertices) {
  // Path A over vertices (0,1); path B over (1,2).
  Relation a = MakeRel(2, {{5, 6}, {7, 8}});
  Relation b = MakeRel(2, {{6, 9}, {8, 10}, {6, 11}});
  auto joined = JoinBindingRanges({0, 1}, AllRows(a), {1, 2}, AllRows(b));
  EXPECT_EQ(joined.schema, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(joined.rows->NumRows(), 3u);
}

TEST(JoinBindingRanges, DisjointSchemasCross) {
  Relation a = MakeRel(1, {{1}});
  Relation b = MakeRel(1, {{2}, {3}});
  auto joined = JoinBindingRanges({0}, AllRows(a), {1}, AllRows(b));
  EXPECT_EQ(joined.rows->NumRows(), 2u);
  EXPECT_EQ(joined.schema.size(), 2u);
}

TEST(JoinBindingRanges, WithIndexMatchesScan) {
  Relation a = MakeRel(2, {{5, 6}, {7, 8}});
  Relation b = MakeRel(2, {{6, 9}, {8, 10}});
  auto plain = JoinBindingRanges({0, 1}, AllRows(a), {1, 2}, AllRows(b));
  HashIndex idx(&b, 0);  // first shared vertex (1) is column 0 of b
  auto indexed = JoinBindingRanges({0, 1}, AllRows(a), {1, 2}, AllRows(b), &idx);
  EXPECT_EQ(plain.rows->NumRows(), indexed.rows->NumRows());
}

TEST(FirstSharedColumn, FindsAndMisses) {
  EXPECT_EQ(FirstSharedColumn({0, 1}, {2, 1, 3}), 1);
  EXPECT_EQ(FirstSharedColumn({0, 1}, {2, 3}), -1);
}

// ---- Window-delta pipeline (provenance, tags, delta kernels) ------------

TEST(RelationProvenance, TaggedAppendKeepsTagsAndDedups) {
  Relation r(2);
  r.EnableProvenance();
  EXPECT_TRUE(r.AppendTagged(std::vector<VertexId>{1, 2}.data(), 3));
  EXPECT_TRUE(r.AppendTagged(std::vector<VertexId>{2, 3}.data(), 5));
  // A duplicate keeps the existing row and tag.
  EXPECT_FALSE(r.AppendTagged(std::vector<VertexId>{1, 2}.data(), 7));
  EXPECT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.ProvOf(0), 3u);
  EXPECT_EQ(r.ProvOf(1), 5u);
  // Plain appends on a tagged relation are pre-window rows.
  r.Append({9, 9});
  EXPECT_EQ(r.ProvOf(2), 0u);
}

TEST(RelationProvenance, TagsSurviveEraseAndMove) {
  Relation r(1);
  r.EnableProvenance();
  for (VertexId v = 0; v < 6; ++v) r.AppendTagged(&v, v + 10);
  for (VertexId v = 0; v < 6; v += 2) r.Erase(r.Find(&v));
  ASSERT_EQ(r.NumRows(), 3u);
  for (size_t i = 0; i < r.NumRows(); ++i) EXPECT_EQ(r.ProvOf(i), r.At(i, 0) + 10);
  Relation moved(std::move(r));
  EXPECT_EQ(moved.ProvOf(0), moved.At(0, 0) + 10);
}

TEST(RowTagsTest, CheckpointBackedLookup) {
  const WindowCheckpoint cps[] = {{4, 2}, {7, 5}};
  RowTags tags{nullptr, cps, 2};
  EXPECT_EQ(tags.TagOf(0), 0u);  // pre-window
  EXPECT_EQ(tags.TagOf(3), 0u);
  EXPECT_EQ(tags.TagOf(4), 2u);
  EXPECT_EQ(tags.TagOf(6), 2u);
  EXPECT_EQ(tags.TagOf(7), 5u);
  EXPECT_EQ(tags.TagOf(100), 5u);
  EXPECT_EQ(RowTags{}.TagOf(42), 0u);  // no tags: everything pre-window
}

TEST(WindowProvenanceTest, CheckpointsDeriveTagsAndDeltaBegin) {
  Relation view(2);
  WindowProvenance prov;
  view.Append({1, 1});  // pre-window row
  prov.Checkpoint(&view, 1);
  // Position 1 appends nothing; position 2's checkpoint takes the slot over.
  prov.Checkpoint(&view, 2);
  view.Append({2, 2});
  prov.Checkpoint(&view, 3);
  view.Append({3, 3});
  view.Append({3, 4});

  RowTags tags = prov.TagsFor(&view);
  EXPECT_EQ(tags.TagOf(0), 0u);
  EXPECT_EQ(tags.TagOf(1), 2u);
  EXPECT_EQ(tags.TagOf(2), 3u);
  EXPECT_EQ(tags.TagOf(3), 3u);
  EXPECT_EQ(prov.WindowDeltaBegin(&view), 1u);

  Relation untouched(2);
  untouched.Append({9, 9});
  EXPECT_EQ(prov.TagsFor(&untouched).TagOf(0), 0u);
  EXPECT_EQ(prov.WindowDeltaBegin(&untouched), 1u);  // == NumRows()
}

/// One tagged batch pass must emit exactly the rows of the per-update loop,
/// each tagged with the seed/base max position.
TEST(DeltaKernels, ExtendRightDeltaMatchesLoopedSingles) {
  Relation seeds(2);
  seeds.EnableProvenance();
  seeds.AppendTagged(std::vector<VertexId>{1, 10}.data(), 1);
  seeds.AppendTagged(std::vector<VertexId>{2, 20}.data(), 2);
  seeds.AppendTagged(std::vector<VertexId>{3, 10}.data(), 3);
  Relation base = MakeRel(2, {{10, 5}, {20, 6}, {10, 7}, {99, 8}});

  Relation looped(3);
  for (size_t i = 0; i < seeds.NumRows(); ++i)
    ExtendRight(RowRange{&seeds, i, i + 1}, base, nullptr, looped);

  Relation delta(3);
  delta.EnableProvenance();
  ExtendRightDelta(DeltaBatch{AllRows(seeds), TagsOfProvenance(seeds)}, base,
                   nullptr, RowTags{}, delta);

  ASSERT_EQ(delta.NumRows(), looped.NumRows());
  for (size_t i = 0; i < looped.NumRows(); ++i) {
    // Row sets are equal; find each looped row in the delta output.
    bool found = false;
    for (size_t j = 0; j < delta.NumRows() && !found; ++j) {
      found = std::equal(looped.Row(i), looped.Row(i) + 3, delta.Row(j));
      if (found) EXPECT_EQ(delta.ProvOf(j), delta.At(j, 0));  // seed v == tag
    }
    EXPECT_TRUE(found);
  }
  // With base rows tagged, the emitted tag is the max of both sides.
  const WindowCheckpoint base_cps[] = {{2, 9}};  // base rows 2.. are position 9
  Relation tagged(3);
  tagged.EnableProvenance();
  ExtendRightDelta(DeltaBatch{AllRows(seeds), TagsOfProvenance(seeds)}, base,
                   nullptr, RowTags{nullptr, base_cps, 1}, tagged);
  for (size_t j = 0; j < tagged.NumRows(); ++j) {
    if (tagged.At(j, 2) == 7)  // derived from base row 2
      EXPECT_EQ(tagged.ProvOf(j), 9u);
  }
}

TEST(DeltaKernels, ExtendLeftDeltaTagsPrependedRows) {
  Relation seeds(2);
  seeds.EnableProvenance();
  seeds.AppendTagged(std::vector<VertexId>{10, 1}.data(), 4);
  Relation base = MakeRel(2, {{5, 10}, {6, 10}, {7, 99}});

  Relation out(3);
  out.EnableProvenance();
  ExtendLeftDelta(DeltaBatch{AllRows(seeds), TagsOfProvenance(seeds)}, base,
                  nullptr, RowTags{}, out);
  ASSERT_EQ(out.NumRows(), 2u);
  for (size_t j = 0; j < out.NumRows(); ++j) {
    EXPECT_EQ(out.At(j, 1), 10u);
    EXPECT_EQ(out.ProvOf(j), 4u);
  }
}

TEST(DeltaKernels, JoinConcatDeltaMatchesUntaggedRowsWithMaxTags) {
  Relation a(2);
  a.EnableProvenance();
  a.AppendTagged(std::vector<VertexId>{1, 10}.data(), 2);
  a.AppendTagged(std::vector<VertexId>{2, 20}.data(), 6);
  Relation b = MakeRel(2, {{10, 100}, {20, 200}});
  const std::vector<std::pair<uint32_t, uint32_t>> keys{{1, 0}};

  Relation plain(4);
  JoinConcat(AllRows(a), AllRows(b), keys, nullptr, plain);

  const WindowCheckpoint b_cps[] = {{1, 4}};  // b row 1 is position 4
  Relation tagged(4);
  tagged.EnableProvenance();
  JoinConcatDelta(DeltaBatch{AllRows(a), TagsOfProvenance(a)}, AllRows(b),
                  RowTags{nullptr, b_cps, 1}, keys, nullptr, tagged);

  ASSERT_EQ(tagged.NumRows(), plain.NumRows());
  for (size_t j = 0; j < tagged.NumRows(); ++j) {
    if (tagged.At(j, 0) == 1) EXPECT_EQ(tagged.ProvOf(j), 2u);  // max(2, 0)
    if (tagged.At(j, 0) == 2) EXPECT_EQ(tagged.ProvOf(j), 6u);  // max(6, 4)
  }
}

TEST(TaggedBindings, PathRowsAndJoinCarryTags) {
  // Path positions (v0, v1, v0): rows violating the cycle check drop out,
  // survivors carry their source tags through the binding join.
  PathBindingSpec spec = PathBindingSpec::For({0, 1, 0});
  Relation view = MakeRel(3, {{1, 2, 1}, {3, 4, 5}, {6, 7, 6}});
  const WindowCheckpoint cps[] = {{1, 8}};
  OwnedBindings bound =
      PathRowsToBindingsTagged(AllRows(view), spec, RowTags{nullptr, cps, 1});
  ASSERT_EQ(bound.rows->NumRows(), 2u);  // {1,2} tag 0 and {6,7} tag 8
  EXPECT_EQ(bound.rows->ProvOf(0), 0u);
  EXPECT_EQ(bound.rows->ProvOf(1), 8u);

  Relation other = MakeRel(2, {{2, 30}, {7, 40}});
  const WindowCheckpoint other_cps[] = {{0, 3}};
  OwnedBindings joined = JoinBindingRangesTagged(
      bound.schema, bound.All(), {1, 2}, AllRows(other),
      RowTags{nullptr, other_cps, 1});
  ASSERT_EQ(joined.rows->NumRows(), 2u);
  for (size_t i = 0; i < joined.rows->NumRows(); ++i)
    EXPECT_EQ(joined.rows->ProvOf(i),
              std::max<uint32_t>(3, joined.rows->At(i, 0) == 6 ? 8 : 0));
}

}  // namespace
}  // namespace gstream
