#include "common/flat_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "matview/relation.h"

namespace gstream {
namespace {

// ---------------------------------------------------------------- PostingList

TEST(PostingList, InlineThenSpill) {
  PostingList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.HeapBytes(), 0u);

  list.Append(10);
  list.Append(20);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list.HeapBytes(), 0u);  // still inline

  list.Append(30);  // spills
  EXPECT_EQ(list.size(), 3u);
  EXPECT_GT(list.HeapBytes(), 0u);

  RowIdSpan span = list.Span();
  ASSERT_EQ(span.size(), 3u);
  EXPECT_EQ(span[0], 10u);
  EXPECT_EQ(span[1], 20u);
  EXPECT_EQ(span[2], 30u);
}

TEST(PostingList, MovePreservesContentAndEmptiesSource) {
  PostingList list;
  for (uint32_t i = 0; i < 100; ++i) list.Append(i);
  PostingList moved = std::move(list);
  EXPECT_EQ(moved.size(), 100u);
  EXPECT_EQ(moved.Span()[99], 99u);
  EXPECT_EQ(list.size(), 0u);  // NOLINT(bugprone-use-after-move)
  list.Append(7);              // reusable after move
  EXPECT_EQ(list.Span()[0], 7u);
}

TEST(PostingList, InsertSortedAndEraseKeepAscendingOrder) {
  PostingList list;
  std::vector<uint32_t> model;
  Rng rng(31);
  for (int step = 0; step < 2'000; ++step) {
    const uint32_t v = static_cast<uint32_t>(rng.Next(64));
    const auto it = std::lower_bound(model.begin(), model.end(), v);
    if (it != model.end() && *it == v) {
      list.Erase(v);
      model.erase(it);
    } else {
      list.InsertSorted(v);
      model.insert(it, v);
    }
    RowIdSpan span = list.Span();
    ASSERT_EQ(span.size(), model.size());
    ASSERT_TRUE(std::equal(span.begin(), span.end(), model.begin()));
  }
}

// ------------------------------------------------------------- FlatPostingMap

TEST(FlatPostingMap, InsertProbeGrow) {
  FlatPostingMap map;
  EXPECT_TRUE(map.Probe(1).empty());

  const size_t n = 10'000;
  for (uint32_t k = 0; k < n; ++k) {
    map.Add(k, k * 2);
    map.Add(k, k * 2 + 1);
  }
  EXPECT_EQ(map.size(), n);
  for (uint32_t k = 0; k < n; ++k) {
    RowIdSpan span = map.Probe(k);
    ASSERT_EQ(span.size(), 2u) << k;
    EXPECT_EQ(span[0], k * 2);
    EXPECT_EQ(span[1], k * 2 + 1);
  }
  EXPECT_TRUE(map.Probe(n + 5).empty());
}

TEST(FlatPostingMap, CollisionHeavyKeys) {
  // Keys strided by a large power of two collide in small tables.
  FlatPostingMap map;
  std::vector<VertexId> keys;
  for (uint32_t i = 0; i < 512; ++i) keys.push_back(i << 16);
  for (VertexId k : keys) map.Add(k, k + 1);
  for (VertexId k : keys) {
    RowIdSpan span = map.Probe(k);
    ASSERT_EQ(span.size(), 1u);
    EXPECT_EQ(span[0], k + 1);
  }
}

TEST(FlatPostingMap, SentinelKeyIsSupported) {
  // kNoVertex is a legal key (the inverted indexes key "?var" terms by it).
  FlatPostingMap map;
  map.Add(kNoVertex, 42);
  map.Add(kNoVertex, 43);
  map.Add(7, 1);
  EXPECT_EQ(map.size(), 2u);
  RowIdSpan span = map.Probe(kNoVertex);
  ASSERT_EQ(span.size(), 2u);
  EXPECT_EQ(span[0], 42u);
  EXPECT_EQ(span[1], 43u);
}

TEST(FlatPostingMap, ReserveDoesNotLoseEntries) {
  FlatPostingMap map;
  for (uint32_t k = 0; k < 100; ++k) map.Add(k, k);
  map.Reserve(100'000);
  for (uint32_t k = 0; k < 100; ++k) {
    ASSERT_EQ(map.Probe(k).size(), 1u);
    EXPECT_EQ(map.Probe(k)[0], k);
  }
}

TEST(FlatPostingMap, ClearResets) {
  FlatPostingMap map;
  for (uint32_t k = 0; k < 64; ++k) map.Add(k, k);
  map.Add(kNoVertex, 9);
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.Probe(3).empty());
  EXPECT_TRUE(map.Probe(kNoVertex).empty());
  map.Add(3, 33);  // reusable after Clear
  EXPECT_EQ(map.Probe(3)[0], 33u);
}

TEST(FlatPostingMap, PostingsStayAscending) {
  // The join kernels binary-search postings by row id; insertion in
  // ascending row order must be preserved across spills and rehashes.
  FlatPostingMap map;
  Rng rng(99);
  std::vector<std::vector<uint32_t>> expected(37);
  for (uint32_t row = 0; row < 5000; ++row) {
    VertexId key = static_cast<VertexId>(rng.Next(37));
    map.Add(key, row);
    expected[key].push_back(row);
  }
  for (VertexId k = 0; k < 37; ++k) {
    RowIdSpan span = map.Probe(k);
    ASSERT_EQ(span.size(), expected[k].size());
    EXPECT_TRUE(std::is_sorted(span.begin(), span.end()));
    EXPECT_TRUE(std::equal(span.begin(), span.end(), expected[k].begin()));
  }
}

TEST(FlatPostingMap, RemoveKeepsOrderAndFreesEmptiedKeys) {
  FlatPostingMap map;
  for (uint32_t row = 0; row < 6; ++row) map.Add(5, row);
  map.Add(kNoVertex, 1);
  map.Add(9, 2);
  map.Remove(5, 3);
  RowIdSpan span = map.Probe(5);
  ASSERT_EQ(span.size(), 5u);
  EXPECT_TRUE(std::is_sorted(span.begin(), span.end()));
  EXPECT_EQ(std::count(span.begin(), span.end(), 3u), 0);
  map.InsertSorted(5, 3);
  EXPECT_TRUE(std::is_sorted(map.Probe(5).begin(), map.Probe(5).end()));
  EXPECT_EQ(map.Probe(5).size(), 6u);

  // Emptied keys leave the map, the sentinel included.
  map.Remove(9, 2);
  map.Remove(kNoVertex, 1);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.Probe(9).empty());
  EXPECT_TRUE(map.Probe(kNoVertex).empty());
  size_t visited = 0;
  map.ForEach([&](VertexId key, RowIdSpan) {
    EXPECT_EQ(key, 5u);
    ++visited;
  });
  EXPECT_EQ(visited, 1u);
}

TEST(FlatPostingMap, SlidingKeyWindowKeepsCapacityBounded) {
  // A maintained index over a sliding window: keys enter and, once their
  // last posting goes, leave. Erased slots must be reused (or rehashed away
  // in place) so the table tracks the live window, not every key it saw.
  constexpr uint32_t kWindow = 300;
  FlatPostingMap map;
  for (uint32_t k = 0; k < kWindow; ++k) map.Add(k * 7919, k);
  const size_t steady = map.Capacity();
  for (uint32_t k = kWindow; k < 200'000; ++k) {
    map.Add(k * 7919, k);
    map.Remove((k - kWindow) * 7919, k - kWindow);
    ASSERT_EQ(map.size(), kWindow);
    ASSERT_LE(map.Capacity(), 2 * steady) << "after key " << k;
  }
  for (uint32_t k = 200'000 - kWindow; k < 200'000; ++k) {
    ASSERT_EQ(map.Probe(k * 7919).size(), 1u);
    EXPECT_EQ(map.Probe(k * 7919)[0], k);
  }
  EXPECT_TRUE(map.Probe(0).empty());
}

TEST(FlatPostingMapFuzz, RemoveAndInsertSortedMatchReferenceModel) {
  for (uint64_t seed : {41u, 42u, 43u}) {
    Rng rng(seed);
    FlatPostingMap map;
    std::map<VertexId, std::set<uint32_t>> model;
    for (uint32_t step = 0; step < 20'000; ++step) {
      // Strided keys collide in small tables; the sentinel rides along.
      const uint64_t roll = rng.Next(41);
      const VertexId key = roll == 40 ? kNoVertex : static_cast<VertexId>(roll << 12);
      const uint32_t row = static_cast<uint32_t>(rng.Next(50));
      auto it = model.find(key);
      if (it != model.end() && it->second.count(row) > 0) {
        map.Remove(key, row);
        it->second.erase(row);
        if (it->second.empty()) model.erase(it);
      } else {
        map.InsertSorted(key, row);
        model[key].insert(row);
      }
      ASSERT_EQ(map.size(), model.size()) << "seed " << seed;
    }
    for (uint64_t roll = 0; roll <= 40; ++roll) {
      const VertexId key = roll == 40 ? kNoVertex : static_cast<VertexId>(roll << 12);
      RowIdSpan span = map.Probe(key);
      auto it = model.find(key);
      const size_t want = it == model.end() ? 0 : it->second.size();
      ASSERT_EQ(span.size(), want) << "seed " << seed << " key " << key;
      if (want > 0) {
        EXPECT_TRUE(std::equal(span.begin(), span.end(), it->second.begin()));
      }
    }
  }
}

// ----------------------------------------------------------------- FlatRowSet

TEST(FlatRowSet, InsertRejectsEqualAcceptsDistinct) {
  // Simulate two-column rows stored externally.
  std::vector<std::pair<uint32_t, uint32_t>> rows;
  FlatRowSet set;
  auto insert = [&](uint32_t a, uint32_t b) {
    rows.emplace_back(a, b);
    const uint32_t idx = static_cast<uint32_t>(rows.size() - 1);
    uint32_t key[2] = {a, b};
    const bool ok = set.Insert(
        HashIds(key, 2), idx,
        [&](uint32_t existing) { return rows[existing] == rows[idx]; },
        [&](uint32_t existing) {
          uint32_t k[2] = {rows[existing].first, rows[existing].second};
          return HashIds(k, 2);
        });
    if (!ok) rows.pop_back();
    return ok;
  };
  EXPECT_TRUE(insert(1, 2));
  EXPECT_FALSE(insert(1, 2));
  EXPECT_TRUE(insert(2, 1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(FlatRowSet, ErasedSlotsAreReusedAndRepointedEntriesFound) {
  // Every row hashes alike, so the rows fill the home group completely and
  // spill into the next: an erase inside the full group must leave a
  // tombstone (the spilled rows' chains run through it), and the next
  // insert must reuse it rather than grow the table.
  std::vector<uint32_t> values;  // row index -> value
  FlatRowSet set;
  const auto hash_of = [](uint32_t) { return uint64_t{0}; };
  const auto insert = [&](uint32_t v) {
    const uint32_t idx = static_cast<uint32_t>(values.size());
    values.push_back(v);
    const bool ok = set.Insert(
        0, idx, [&](uint32_t e) { return values[e] == v; }, hash_of);
    if (!ok) values.pop_back();
    return ok;
  };
  const auto find = [&](uint32_t v) {
    return set.Find(0, [&](uint32_t e) { return values[e] == v; });
  };
  // Swap-remove row `idx`, the way Relation::Erase does.
  const auto erase = [&](uint32_t idx) {
    const uint32_t last = static_cast<uint32_t>(values.size() - 1);
    set.Erase(0, idx);
    if (idx != last) {
      set.Repoint(0, last, idx);
      values[idx] = values[last];
    }
    values.pop_back();
  };

  for (uint32_t v = 0; v < 28; ++v) ASSERT_TRUE(insert(v));
  const size_t bytes = set.MemoryBytes();  // 32 slots, 28 of them full
  Rng rng(77);
  uint32_t next = 28;
  for (int round = 0; round < 2'000; ++round) {
    const uint32_t victim = static_cast<uint32_t>(rng.Next(values.size()));
    const uint32_t gone = values[victim];
    erase(victim);
    EXPECT_EQ(find(gone), FlatRowSet::kNotFound);
    ASSERT_TRUE(insert(next++));
    ASSERT_EQ(set.size(), 28u);
    ASSERT_EQ(set.MemoryBytes(), bytes) << "round " << round;
  }
  for (uint32_t idx = 0; idx < values.size(); ++idx) {
    EXPECT_EQ(find(values[idx]), idx);
    EXPECT_FALSE(insert(values[idx]));  // live rows stay duplicates
  }
}

TEST(FlatRowSet, SlidingRowWindowKeepsCapacityBounded) {
  // A relation whose rows slide: every append retires the oldest row, over
  // many distinct rows. Tombstones must not accumulate into growth.
  constexpr uint32_t kWindow = 500;
  Relation rel(2);
  for (uint32_t k = 0; k < kWindow; ++k) rel.Append({k, k + 1});
  const size_t steady = rel.MemoryBytes();
  for (uint32_t k = kWindow; k < 100'000; ++k) {
    ASSERT_TRUE(rel.Append({k, k + 1}));
    const VertexId oldest[2] = {k - kWindow, k - kWindow + 1};
    const size_t i = rel.Find(oldest);
    ASSERT_NE(i, Relation::kNoRow);
    rel.Erase(i);
    ASSERT_EQ(rel.NumRows(), kWindow);
    ASSERT_LE(rel.MemoryBytes(), 2 * steady) << "after row " << k;
  }
  for (uint32_t k = 100'000 - kWindow; k < 100'000; ++k) {
    const VertexId row[2] = {k, k + 1};
    EXPECT_NE(rel.Find(row), Relation::kNoRow);
  }
}

// --------------------------------------------------------------- FlatMap<K,V>

struct CollidingHash {
  size_t operator()(uint32_t) const { return 7; }  // everything collides
};

TEST(FlatMap, GetOrCreateFindGrow) {
  FlatMap<uint32_t, std::vector<int>, VertexIdHash> map;
  for (uint32_t k = 0; k < 3000; ++k) map.GetOrCreate(k).push_back(static_cast<int>(k));
  EXPECT_EQ(map.size(), 3000u);
  for (uint32_t k = 0; k < 3000; ++k) {
    const std::vector<int>* v = map.Find(k);
    ASSERT_NE(v, nullptr);
    ASSERT_EQ(v->size(), 1u);
    EXPECT_EQ((*v)[0], static_cast<int>(k));
  }
  EXPECT_EQ(map.Find(99999), nullptr);
}

TEST(FlatMap, SurvivesPathologicalHash) {
  FlatMap<uint32_t, int, CollidingHash> map;
  for (uint32_t k = 0; k < 200; ++k) map.GetOrCreate(k) = static_cast<int>(k) + 1;
  for (uint32_t k = 0; k < 200; ++k) {
    ASSERT_NE(map.Find(k), nullptr);
    EXPECT_EQ(*map.Find(k), static_cast<int>(k) + 1);
  }
  EXPECT_EQ(map.size(), 200u);
}

TEST(FlatMap, MoveOnlyValues) {
  FlatMap<uint32_t, std::unique_ptr<int>, VertexIdHash> map;
  for (uint32_t k = 0; k < 100; ++k) map.GetOrCreate(k) = std::make_unique<int>(k);
  for (uint32_t k = 0; k < 100; ++k) {
    ASSERT_NE(map.Find(k), nullptr);
    EXPECT_EQ(**map.Find(k), static_cast<int>(k));
  }
}

TEST(FlatMap, ForEachVisitsEverything) {
  FlatMap<uint32_t, int, VertexIdHash> map;
  for (uint32_t k = 0; k < 500; ++k) map.GetOrCreate(k) = 1;
  size_t count = 0;
  map.ForEach([&](uint32_t, int v) { count += v; });
  EXPECT_EQ(count, 500u);
}

TEST(FlatMap, EraseTombstonesKeepProbeChainsIntact) {
  // Pathological hash: every key shares one probe chain, so erasing from
  // the middle must not hide the keys behind the tombstone.
  FlatMap<uint32_t, int, CollidingHash> map;
  for (uint32_t k = 0; k < 60; ++k) map.GetOrCreate(k) = static_cast<int>(k);
  for (uint32_t k = 0; k < 60; k += 2) EXPECT_TRUE(map.Erase(k));
  EXPECT_FALSE(map.Erase(0));  // already gone
  EXPECT_EQ(map.size(), 30u);
  for (uint32_t k = 0; k < 60; ++k) {
    if (k % 2 == 0) {
      EXPECT_EQ(map.Find(k), nullptr) << k;
    } else {
      ASSERT_NE(map.Find(k), nullptr) << k;
      EXPECT_EQ(*map.Find(k), static_cast<int>(k));
    }
  }
  // Reinsertion reuses tombstoned slots and finds the fresh value.
  for (uint32_t k = 0; k < 60; k += 2) map.GetOrCreate(k) = -static_cast<int>(k);
  EXPECT_EQ(map.size(), 60u);
  for (uint32_t k = 0; k < 60; k += 2) EXPECT_EQ(*map.Find(k), -static_cast<int>(k));
}

TEST(FlatMap, EraseDestroysTheValueInPlace) {
  FlatMap<uint32_t, std::shared_ptr<int>, VertexIdHash> map;
  auto alive = std::make_shared<int>(7);
  map.GetOrCreate(1) = alive;
  EXPECT_EQ(alive.use_count(), 2);
  EXPECT_TRUE(map.Erase(1));
  EXPECT_EQ(alive.use_count(), 1);  // the slot's copy died with the erase
}

TEST(FlatMap, CompactReleasesTombstonedAndExcessCapacity) {
  FlatMap<uint32_t, uint64_t, VertexIdHash> map;
  for (uint32_t k = 0; k < 4'000; ++k) map.GetOrCreate(k) = k;
  const size_t loaded = map.MemoryBytes();
  for (uint32_t k = 10; k < 4'000; ++k) EXPECT_TRUE(map.Erase(k));
  // Tombstones keep the capacity (and the bytes) until compaction.
  EXPECT_EQ(map.MemoryBytes(), loaded);
  map.Compact();
  EXPECT_LT(map.MemoryBytes(), loaded / 16);
  EXPECT_EQ(map.size(), 10u);
  for (uint32_t k = 0; k < 10; ++k) {
    ASSERT_NE(map.Find(k), nullptr);
    EXPECT_EQ(*map.Find(k), k);
  }

  // An emptied map releases everything.
  for (uint32_t k = 0; k < 10; ++k) EXPECT_TRUE(map.Erase(k));
  map.Compact();
  EXPECT_EQ(map.MemoryBytes(), sizeof(map));
  // And stays usable afterwards.
  map.GetOrCreate(5) = 55;
  EXPECT_EQ(*map.Find(5), 55u);
}

TEST(FlatMap, EraseHeavyChurnDoesNotDegradeToInfiniteProbes) {
  // Erase/insert cycles at a stable size: tombstones count against the
  // load factor, so the table rehashes instead of filling up with them.
  FlatMap<uint32_t, uint32_t, VertexIdHash> map;
  uint32_t next = 0;
  for (uint32_t k = 0; k < 64; ++k) map.GetOrCreate(next++) = 1;
  for (uint32_t round = 0; round < 2'000; ++round) {
    EXPECT_TRUE(map.Erase(next - 64));
    map.GetOrCreate(next++) = 1;
    ASSERT_EQ(map.size(), 64u);
  }
  for (uint32_t k = next - 64; k < next; ++k) ASSERT_NE(map.Find(k), nullptr);
}

// --------------------------------------------- group-probe SIMD/scalar parity

std::vector<uint32_t> Lanes(flat_internal::LaneMask m) {
  std::vector<uint32_t> lanes;
  for (; static_cast<bool>(m); m.Clear()) lanes.push_back(m.Lane());
  return lanes;
}

TEST(GroupProbeParity, ActiveBackendMatchesScalarOnFuzzedControlBytes) {
  // The active Group backend (SSE2 / NEON / scalar depending on the build)
  // must report bit-identical match and empty lanes to the always-compiled
  // scalar reference, for arbitrary control-byte contents.
  Rng rng(20260728);
  alignas(16) int8_t ctrl[flat_internal::kGroupWidth];
  for (int iter = 0; iter < 20'000; ++iter) {
    for (auto& c : ctrl) {
      // Bias towards empties and towards one hot fragment so matches happen.
      const uint64_t roll = rng.Next(10);
      c = roll < 3 ? flat_internal::kCtrlEmpty
                   : static_cast<int8_t>(rng.Next(roll < 6 ? 4 : 128));
    }
    const int8_t h2 = static_cast<int8_t>(rng.Next(128));
    const flat_internal::Group active(ctrl);
    const flat_internal::ScalarGroup ref(ctrl);
    EXPECT_EQ(Lanes(active.Match(h2)), Lanes(ref.Match(h2)));
    EXPECT_EQ(Lanes(active.MatchEmpty()), Lanes(ref.MatchEmpty()));
  }
}

// ----------------------------------------- randomized container-model fuzzing
//
// The same test binary is built twice in CI (default SIMD and
// -DGSTREAM_NO_SIMD=ON); identical reference-model behavior in both builds
// proves the SIMD and scalar probe paths return identical results across
// inserts, growth, and Reserve.

TEST(FlatPostingMapFuzz, MatchesReferenceModelAcrossInsertsGrowthAndReserve) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed * 977);
    FlatPostingMap map;
    std::unordered_map<VertexId, std::vector<uint32_t>> model;
    const size_t universe = 1 + rng.Next(2'000);
    const size_t ops = 6'000;
    for (uint32_t i = 0; i < ops; ++i) {
      const uint64_t roll = rng.Next(100);
      if (roll < 2) {
        map.Reserve(rng.Next(4'000));  // must never perturb contents
      } else {
        // Include the sentinel key now and then.
        VertexId k = roll < 5 ? kNoVertex : static_cast<VertexId>(rng.Next(universe));
        map.Add(k, i);
        model[k].push_back(i);
      }
      if (i % 701 == 0) {
        for (const auto& [k, rows] : model) {
          RowIdSpan span = map.Probe(k);
          ASSERT_EQ(std::vector<uint32_t>(span.begin(), span.end()), rows)
              << "seed " << seed << " op " << i;
        }
      }
    }
    ASSERT_EQ(map.size(), model.size());
    // Misses: keys outside the inserted universe must probe empty.
    for (uint32_t k = 0; k < 64; ++k)
      EXPECT_TRUE(map.Probe(static_cast<VertexId>(universe + 1 + k)).empty());
    // ForEach visits exactly the model.
    size_t visited = 0;
    map.ForEach([&](VertexId k, RowIdSpan span) {
      ++visited;
      auto it = model.find(k);
      ASSERT_NE(it, model.end());
      EXPECT_EQ(span.size(), it->second.size());
    });
    EXPECT_EQ(visited, model.size());
  }
}

TEST(FlatRowSetFuzz, DedupDecisionsMatchReferenceModel) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    FlatRowSet set;
    std::vector<uint64_t> stored;          // values by row index
    std::set<uint64_t> model;
    const size_t universe = 1 + rng.Next(3'000);
    // Deliberately weak hash (low entropy) to force candidate collisions.
    const auto hash_of_value = [](uint64_t v) { return Mix64(v % 512); };
    const auto hash_of_row = [&](uint32_t idx) { return hash_of_value(stored[idx]); };
    for (uint32_t i = 0; i < 8'000; ++i) {
      if (rng.Next(100) < 2) set.Reserve(rng.Next(6'000), hash_of_row);
      const uint64_t value = rng.Next(universe);
      const bool inserted = set.Insert(
          hash_of_value(value), static_cast<uint32_t>(stored.size()),
          [&](uint32_t idx) { return stored[idx] == value; }, hash_of_row);
      EXPECT_EQ(inserted, model.insert(value).second) << "seed " << seed;
      if (inserted) stored.push_back(value);
      ASSERT_EQ(set.size(), model.size());
    }
  }
}

TEST(FlatMapFuzz, MatchesReferenceModelAcrossInsertsErasesGrowthAndCompact) {
  struct Hash {
    size_t operator()(uint64_t k) const { return Mix64(k % 997); }  // collisions
  };
  for (uint64_t seed : {21u, 22u, 23u}) {
    Rng rng(seed);
    FlatMap<uint64_t, uint64_t, Hash> map;
    std::unordered_map<uint64_t, uint64_t> model;
    const size_t universe = 1 + rng.Next(4'000);
    for (uint32_t i = 0; i < 8'000; ++i) {
      const uint64_t roll = rng.Next(100);
      if (roll < 2) {
        map.Reserve(rng.Next(8'000));
      } else if (roll < 4) {
        map.Compact();
      } else if (roll < 55) {
        const uint64_t k = rng.Next(universe);
        map.GetOrCreate(k) = i;
        model[k] = i;
      } else if (roll < 75) {
        const uint64_t k = rng.Next(universe * 2);  // ~50% misses
        ASSERT_EQ(map.Erase(k), model.erase(k) > 0) << "seed " << seed;
      } else {
        const uint64_t k = rng.Next(universe * 2);  // ~50% misses
        const uint64_t* found = map.Find(k);
        auto it = model.find(k);
        ASSERT_EQ(found != nullptr, it != model.end()) << "seed " << seed;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
      }
    }
    EXPECT_EQ(map.size(), model.size());
    size_t visited = 0;
    map.ForEach([&](uint64_t k, uint64_t v) {
      ++visited;
      auto it = model.find(k);
      ASSERT_NE(it, model.end());
      EXPECT_EQ(v, it->second);
    });
    EXPECT_EQ(visited, model.size());
  }
}

TEST(RelationDedupEquivalence, RandomizedAgainstReferenceSet) {
  Rng rng(4242);
  const uint32_t arity = 3;
  Relation rel(arity);
  std::set<std::vector<VertexId>> reference;

  auto check_equal = [&]() {
    ASSERT_EQ(rel.NumRows(), reference.size());
    std::set<std::vector<VertexId>> actual;
    for (size_t i = 0; i < rel.NumRows(); ++i)
      actual.emplace(rel.Row(i), rel.Row(i) + arity);
    EXPECT_EQ(actual, reference);
  };

  for (int round = 0; round < 3; ++round) {
    for (int step = 0; step < 4000; ++step) {
      // Small universe so duplicates are frequent.
      std::vector<VertexId> row = {static_cast<VertexId>(rng.Next(12)),
                                   static_cast<VertexId>(rng.Next(12)),
                                   static_cast<VertexId>(rng.Next(12))};
      const bool inserted = rel.Append(row);
      EXPECT_EQ(inserted, reference.insert(row).second);
    }
    check_equal();

    // In-place retraction of every row starting with `victim`: the dedup
    // set is patched per erase (no rebuild) and must stay exact.
    const VertexId victim = static_cast<VertexId>(rng.Next(12));
    for (auto it = reference.begin(); it != reference.end();) {
      if ((*it)[0] != victim) {
        ++it;
        continue;
      }
      const size_t i = rel.Find(it->data());
      ASSERT_NE(i, Relation::kNoRow);
      rel.Erase(i);
      it = reference.erase(it);
    }
    check_equal();
  }
}

TEST(RelationReserve, AppendAllDeduplicatesAcrossRelations) {
  Relation a(2), b(2);
  a.Append({1, 2});
  a.Append({3, 4});
  b.Append({3, 4});
  b.Append({5, 6});
  a.Reserve(10);
  EXPECT_EQ(a.AppendAll(b), 1u);  // {3,4} already present
  EXPECT_EQ(a.NumRows(), 3u);
}

TEST(RelationSelfAppend, RowPointerIntoOwnStorageIsSafe) {
  Relation r(2);
  r.Append({1, 2});
  // Force many appends of rows aliasing r's own buffer across growth.
  for (uint32_t i = 0; i < 200; ++i) {
    std::vector<VertexId> fresh = {i + 10, i + 11};
    r.Append(fresh);
    r.Append(r.Row(0));  // duplicate of {1,2}: must be rejected, not corrupt
  }
  EXPECT_EQ(r.At(0, 0), 1u);
  EXPECT_EQ(r.At(0, 1), 2u);
}

}  // namespace
}  // namespace gstream
