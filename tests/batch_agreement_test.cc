#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/budget.h"
#include "engine/driver.h"
#include "engine/engine.h"
#include "graph/stream.h"
#include "query/parser.h"
#include "workload/bio.h"
#include "workload/query_gen.h"
#include "workload/snb.h"
#include "workload/taxi.h"

namespace gstream {
namespace {

/// Batched execution must be observationally identical to sequential
/// execution: for every engine, `ApplyBatch` over any window partition of the
/// stream returns exactly the per-update results sequential `ApplyUpdate`
/// calls produce — same `changed` flags, same (query id, #new embeddings)
/// vectors, same notification order. This holds for the default sequential
/// fallback (naive, graphdb) and for the view engines' footprint-sharded
/// override, with and without worker threads.

std::vector<EngineKind> AllEngineKinds() {
  std::vector<EngineKind> kinds = PaperEngineKinds();
  kinds.push_back(EngineKind::kNaive);
  return kinds;
}

/// Runs `kind` twice over the same queries: `setup` goes update by update
/// into both engines, then `updates` goes through sequential `ApplyUpdate`
/// and through ApplyBatch windows of `window` with `threads` workers (and
/// the routing index on or off). Every batched result must equal the
/// sequential one, and the StateFingerprints must agree at every window
/// boundary. Returns the sequential results of `updates`.
std::vector<UpdateResult> ExpectEngineBatchMatchesSequential(
    EngineKind kind, const std::vector<QueryPattern>& queries,
    const std::vector<EdgeUpdate>& setup, const std::vector<EdgeUpdate>& updates,
    size_t window, int threads, bool routed, const std::string& label) {
  auto sequential = CreateEngine(kind);
  auto batched = CreateEngine(kind);
  for (QueryId qid = 0; qid < queries.size(); ++qid) {
    sequential->AddQuery(qid, queries[qid]);
    batched->AddQuery(qid, queries[qid]);
  }
  batched->SetBatchThreads(threads);
  if (!routed) batched->SetRouteIndex(false);
  for (const EdgeUpdate& u : setup) {
    sequential->ApplyUpdate(u);
    batched->ApplyUpdate(u);
  }
  const std::string where = label + ": " + sequential->name() +
                            " window=" + std::to_string(window) +
                            " threads=" + std::to_string(threads) +
                            (routed ? "" : " unrouted");

  std::vector<UpdateResult> expected;
  expected.reserve(updates.size());
  for (size_t pos = 0; pos < updates.size(); pos += window) {
    const size_t n = std::min(window, updates.size() - pos);
    for (size_t k = pos; k < pos + n; ++k)
      expected.push_back(sequential->ApplyUpdate(updates[k]));
    std::vector<UpdateResult> got = batched->ApplyBatch(&updates[pos], n);
    EXPECT_EQ(got.size(), n) << where;  // no budget set, so no short windows
    if (got.size() != n) return expected;
    for (size_t k = 0; k < n; ++k) {
      EXPECT_EQ(got[k].changed, expected[pos + k].changed)
          << where << " at update " << pos + k;
      EXPECT_EQ(got[k].per_query, expected[pos + k].per_query)
          << where << " at update " << pos + k;
      EXPECT_EQ(got[k].triggered, expected[pos + k].triggered)
          << where << " at update " << pos + k;
    }
    EXPECT_EQ(batched->StateFingerprint(), sequential->StateFingerprint())
        << where << " after update " << pos + n;
    if (::testing::Test::HasFailure()) return expected;
  }
  EXPECT_EQ(batched->MemoryBytes() > 0, sequential->MemoryBytes() > 0) << where;
  return expected;
}

void ExpectBatchMatchesSequential(const std::vector<QueryPattern>& queries,
                                  const std::vector<EdgeUpdate>& updates,
                                  size_t window, int threads,
                                  const std::string& label) {
  for (EngineKind kind : AllEngineKinds()) {
    ExpectEngineBatchMatchesSequential(kind, queries, {}, updates, window, threads,
                                       /*routed=*/true, label);
    if (::testing::Test::HasFailure()) return;
  }
}

struct BatchCase {
  const char* name;
  const char* dataset;  // snb | taxi | bio
  size_t stream_len;
  size_t num_queries;
  double avg_size;
  double selectivity;
  double overlap;
  uint64_t seed;
  size_t window;
  int threads;
};

std::ostream& operator<<(std::ostream& os, const BatchCase& c) { return os << c.name; }

class BatchAgreementTest : public ::testing::TestWithParam<BatchCase> {};

workload::Workload MakeWorkload(const BatchCase& c) {
  if (std::string(c.dataset) == "snb") {
    workload::SnbConfig config;
    config.num_updates = c.stream_len;
    config.seed = c.seed;
    config.num_places = 10;
    config.num_tags = 10;
    return workload::GenerateSnb(config);
  }
  if (std::string(c.dataset) == "taxi") {
    workload::TaxiConfig config;
    config.num_updates = c.stream_len;
    config.seed = c.seed;
    config.num_zones = 12;
    return workload::GenerateTaxi(config);
  }
  workload::BioConfig config;
  config.num_updates = c.stream_len;
  config.seed = c.seed;
  config.growth_coefficient = 1200;
  return workload::GenerateBio(config);
}

TEST_P(BatchAgreementTest, BatchedResultsEqualSequentialForEveryEngine) {
  const BatchCase& c = GetParam();
  workload::Workload w = MakeWorkload(c);

  workload::QueryGenConfig qcfg;
  qcfg.num_queries = c.num_queries;
  qcfg.avg_size = c.avg_size;
  qcfg.selectivity = c.selectivity;
  qcfg.overlap = c.overlap;
  qcfg.seed = c.seed * 131 + 5;
  workload::QuerySet qs = workload::GenerateQueries(w, qcfg);

  ExpectBatchMatchesSequential(qs.queries, w.stream.updates(), c.window, c.threads,
                               c.name);
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedStreams, BatchAgreementTest,
    ::testing::Values(
        // Single-threaded batching isolates the sharding/merge machinery.
        BatchCase{"SnbShardedNoThreads", "snb", 300, 30, 4.0, 0.4, 0.35, 1, 8, 1},
        // Threaded runs exercise concurrent shard execution end to end.
        BatchCase{"SnbThreads2", "snb", 300, 30, 4.0, 0.4, 0.35, 2, 8, 2},
        BatchCase{"SnbThreads4WideWindow", "snb", 400, 40, 5.0, 0.25, 0.35, 3, 32, 4},
        BatchCase{"SnbHighOverlap", "snb", 260, 30, 4.0, 0.4, 0.8, 4, 16, 4},
        BatchCase{"TaxiThreads4", "taxi", 300, 30, 4.0, 0.3, 0.35, 5, 16, 4},
        BatchCase{"TaxiTinyWindows", "taxi", 240, 25, 3.0, 0.5, 0.2, 6, 2, 2},
        BatchCase{"BioDenseThreads4", "bio", 160, 20, 3.0, 0.4, 0.35, 7, 16, 4},
        BatchCase{"BioChains", "bio", 140, 15, 4.0, 0.5, 0.5, 8, 8, 2}),
    [](const ::testing::TestParamInfo<BatchCase>& info) { return info.param.name; });

TEST(BatchAgreementDirected, DeletionsActAsWindowBarriers) {
  // Mixed add/delete stream: deletions serialize their window, and the
  // surrounding insert runs still shard. Duplicate re-adds after deletion
  // must re-trigger exactly as sequential execution does.
  StringInterner in;
  const char* patterns[] = {
      "(?a)-[r]->(?b); (?b)-[r]->(?c)",
      "(?a)-[r]->(?b); (?b)-[s]->(?c)",
      "(?x)-[s]->(?y)",
      "(v0)-[r]->(?b)",
  };
  std::vector<QueryPattern> queries;
  for (const char* p : patterns) {
    auto r = ParsePattern(p, in);
    ASSERT_TRUE(r.ok) << r.error;
    queries.push_back(r.pattern);
  }

  LabelId rl = in.Intern("r");
  LabelId sl = in.Intern("s");
  auto v = [&](int i) { return in.Intern("v" + std::to_string(i)); };
  std::vector<EdgeUpdate> updates;
  Rng rng(7);
  for (int i = 0; i < 120; ++i) {
    EdgeUpdate u;
    u.src = v(static_cast<int>(rng.Next(8)));
    u.dst = v(static_cast<int>(rng.Next(8)));
    u.label = rng.Next(3) == 0 ? sl : rl;
    u.op = rng.Next(5) == 0 ? UpdateOp::kDelete : UpdateOp::kAdd;
    updates.push_back(u);
  }

  ExpectBatchMatchesSequential(queries, updates, /*window=*/16, /*threads=*/4,
                               "DeletionsActAsWindowBarriers");
  ExpectBatchMatchesSequential(queries, updates, /*window=*/5, /*threads=*/2,
                               "DeletionsSmallWindows");
}

TEST(BatchAgreementDirected, SameQueryWindowsSharedPrefixesDupsAndDeletions) {
  // Window-delta stress: a tiny vertex pool so many updates in one window
  // hit the same queries (shared trie prefixes, repeated covering paths),
  // plus exact duplicate edges and interleaved deletions. The delta path
  // must reconstruct byte-identical per-update notification order from the
  // provenance tags.
  StringInterner in;
  const char* patterns[] = {
      "(?a)-[knows]->(?b); (?b)-[knows]->(?c); (?c)-[likes]->(?d)",
      "(?a)-[knows]->(?b); (?a)-[likes]->(?c)",
      "(?x)-[likes]->(?y); (?z)-[likes]->(?y)",
      "(v0)-[knows]->(?b); (?b)-[knows]->(v0)",
      "(?p)-[likes]->(?q)",
  };
  std::vector<QueryPattern> queries;
  for (const char* p : patterns) {
    auto r = ParsePattern(p, in);
    ASSERT_TRUE(r.ok) << r.error;
    queries.push_back(r.pattern);
  }

  LabelId knows = in.Intern("knows");
  LabelId likes = in.Intern("likes");
  auto v = [&](int i) { return in.Intern("v" + std::to_string(i)); };
  std::vector<EdgeUpdate> updates;
  Rng rng(29);
  for (int i = 0; i < 160; ++i) {
    if (!updates.empty() && rng.Next(8) == 0) {
      // Exact duplicate of an earlier update (same op): a no-op re-add or a
      // second delete, resolved by the coordinator pre-pass.
      updates.push_back(updates[rng.Next(updates.size())]);
      continue;
    }
    EdgeUpdate u;
    u.src = v(static_cast<int>(rng.Next(6)));
    u.dst = v(static_cast<int>(rng.Next(6)));
    u.label = rng.Next(3) == 0 ? likes : knows;
    u.op = rng.Next(6) == 0 ? UpdateOp::kDelete : UpdateOp::kAdd;
    updates.push_back(u);
  }

  ExpectBatchMatchesSequential(queries, updates, /*window=*/16, /*threads=*/1,
                               "SameQueryWindows16");
  ExpectBatchMatchesSequential(queries, updates, /*window=*/32, /*threads=*/4,
                               "SameQueryWindows32T4");
  ExpectBatchMatchesSequential(queries, updates, /*window=*/7, /*threads=*/2,
                               "SameQueryWindows7T2");
}

TEST(BatchAgreementDirected, WindowDeltaRunsOneFinalJoinPassPerQueryWindow) {
  // The acceptance gauge of the delta pipeline: a window of K inserts all
  // hitting one query costs K final-join passes per update sequentially but
  // exactly one per (query, window) batched. A deletion splits the window
  // into two delta windows (barrier), doubling the batched count — except
  // for TRIC/TRIC+, whose mixed windows keep the deletion inside the window.
  StringInterner in;
  auto parsed = ParsePattern("(?a)-[r]->(?b)", in);
  ASSERT_TRUE(parsed.ok);
  LabelId rl = in.Intern("r");
  LabelId sl = in.Intern("s");
  auto v = [&](int i) { return in.Intern("v" + std::to_string(i)); };

  constexpr size_t kWindow = 16;
  std::vector<EdgeUpdate> inserts;
  for (size_t i = 0; i < kWindow; ++i)
    inserts.push_back({v(static_cast<int>(i)), rl, v(static_cast<int>(i) + 1),
                       UpdateOp::kAdd});

  const EngineKind view_kinds[] = {EngineKind::kTric,    EngineKind::kTricPlus,
                                   EngineKind::kInv,     EngineKind::kInvPlus,
                                   EngineKind::kInc,     EngineKind::kIncPlus};
  for (EngineKind kind : view_kinds) {
    auto sequential = CreateEngine(kind);
    sequential->AddQuery(0, parsed.pattern);
    for (const EdgeUpdate& u : inserts) sequential->ApplyUpdate(u);
    EXPECT_EQ(sequential->final_join_passes(), kWindow)
        << sequential->name() << " (per-update)";

    auto batched = CreateEngine(kind);
    batched->AddQuery(0, parsed.pattern);
    batched->ApplyBatch(inserts.data(), inserts.size());
    EXPECT_EQ(batched->final_join_passes(), 1u) << batched->name() << " (delta)";

    // Same stream with a foreign-label deletion in the middle: two insert
    // windows, two passes (the deletion itself matches no query pattern);
    // one mixed window, one pass, for TRIC/TRIC+.
    std::vector<EdgeUpdate> split = inserts;
    split.insert(split.begin() + kWindow / 2,
                 EdgeUpdate{v(0), sl, v(1), UpdateOp::kDelete});
    auto barrier = CreateEngine(kind);
    barrier->AddQuery(0, parsed.pattern);
    barrier->ApplyBatch(split.data(), split.size());
    const bool mixed = kind == EngineKind::kTric || kind == EngineKind::kTricPlus;
    EXPECT_EQ(barrier->final_join_passes(), mixed ? 1u : 2u)
        << barrier->name() << " (barrier)";
  }
}

/// Mixed insert/delete windows (TRIC/TRIC+, DESIGN.md §16): agreement with
/// sequential execution at windows of 7 and 32, 1 and 4 threads, on the
/// routed and the legacy finalize path. Returns the sequential results of
/// `updates`.
std::vector<UpdateResult> ExpectMixedWindowsMatchSequential(
    const std::vector<QueryPattern>& queries, const std::vector<EdgeUpdate>& setup,
    const std::vector<EdgeUpdate>& updates, const std::string& label) {
  std::vector<UpdateResult> expected;
  for (EngineKind kind : {EngineKind::kTric, EngineKind::kTricPlus})
    for (size_t window : {7, 32})
      for (int threads : {1, 4})
        for (bool routed : {true, false}) {
          expected = ExpectEngineBatchMatchesSequential(kind, queries, setup, updates,
                                                        window, threads, routed, label);
          if (::testing::Test::HasFailure()) return expected;
        }
  return expected;
}

/// Sum of `r`'s per-query new-embedding counts.
uint64_t NewEmbeddings(const UpdateResult& r) {
  uint64_t total = 0;
  for (const auto& [qid, count] : r.per_query) total += count;
  return total;
}

class MixedWindowTest : public ::testing::Test {
 protected:
  EdgeUpdate Add(int s, const char* label, int d) {
    return {V(s), in_.Intern(label), V(d), UpdateOp::kAdd};
  }
  EdgeUpdate Del(int s, const char* label, int d) {
    return {V(s), in_.Intern(label), V(d), UpdateOp::kDelete};
  }
  VertexId V(int i) { return in_.Intern("v" + std::to_string(i)); }
  std::vector<QueryPattern> Parse(const std::vector<const char*>& patterns) {
    std::vector<QueryPattern> queries;
    for (const char* p : patterns) {
      auto r = ParsePattern(p, in_);
      EXPECT_TRUE(r.ok) << r.error;
      queries.push_back(r.pattern);
    }
    return queries;
  }

  StringInterner in_;
};

TEST_F(MixedWindowTest, InsertThenDeleteOfOneEdgeInsideAWindow) {
  // (v2, v3) lives for two positions: the match it completes counts, and
  // the later (v2, v4) match must not see it.
  const auto queries = Parse({"(?a)-[r]->(?b); (?b)-[r]->(?c)",
                              "(?a)-[r]->(?b); (?b)-[r]->(?c); (?c)-[s]->(?d)"});
  const std::vector<EdgeUpdate> setup = {Add(1, "r", 2), Add(3, "s", 9)};
  const std::vector<EdgeUpdate> updates = {Add(2, "r", 3), Del(2, "r", 3),
                                           Add(2, "r", 4), Add(3, "s", 8),
                                           Add(4, "s", 7)};
  const auto expected =
      ExpectMixedWindowsMatchSequential(queries, setup, updates, "InsertThenDelete");
  ASSERT_EQ(expected.size(), updates.size());
  EXPECT_EQ(NewEmbeddings(expected[0]), 2u);  // (1,2,3) and (1,2,3,9)
  EXPECT_EQ(NewEmbeddings(expected[2]), 1u);  // (1,2,4)
  EXPECT_EQ(NewEmbeddings(expected[3]), 0u);  // (1,2,3,8) died with (2,3)
  EXPECT_EQ(NewEmbeddings(expected[4]), 1u);  // (1,2,4,7)
}

TEST_F(MixedWindowTest, DeleteOfAnOldEdgeCutsItsWindowBornMatches) {
  // (v1, v2) predates the window and joins rows the window creates: matches
  // completed before its deletion count, matches after it do not.
  const auto queries = Parse({"(?a)-[r]->(?b); (?b)-[r]->(?c)",
                              "(?a)-[r]->(?b); (?b)-[s]->(?c)",
                              "(v1)-[r]->(?b); (?b)-[r]->(?c)"});
  const std::vector<EdgeUpdate> setup = {Add(1, "r", 2), Add(0, "r", 1)};
  const std::vector<EdgeUpdate> updates = {Add(2, "r", 3), Add(2, "s", 5),
                                           Del(1, "r", 2), Add(2, "r", 4),
                                           Add(2, "s", 6), Add(1, "r", 7),
                                           Add(7, "s", 8)};
  const auto expected =
      ExpectMixedWindowsMatchSequential(queries, setup, updates, "DeleteOldEdge");
  ASSERT_EQ(expected.size(), updates.size());
  EXPECT_EQ(NewEmbeddings(expected[0]), 2u);  // (1,2,3) twice: q0 and q2
  EXPECT_EQ(NewEmbeddings(expected[1]), 1u);  // q1 (1,2,5)
  EXPECT_TRUE(expected[2].changed);
  EXPECT_EQ(NewEmbeddings(expected[3]), 0u);  // (1,2) is gone
  EXPECT_EQ(NewEmbeddings(expected[4]), 0u);
  EXPECT_EQ(NewEmbeddings(expected[5]), 1u);  // q0 (0,1,7)
  EXPECT_EQ(NewEmbeddings(expected[6]), 1u);  // q1 (1,7,8)
}

TEST_F(MixedWindowTest, DeleteThenReinsertSplitsTheWindow) {
  // A re-insert of an edge the window deleted ends the window there; the
  // re-insert must re-trigger the matches it completes.
  const auto queries = Parse({"(?a)-[r]->(?b); (?b)-[r]->(?c)", "(?x)-[r]->(?y)"});
  const std::vector<EdgeUpdate> setup = {Add(1, "r", 2), Add(2, "r", 3)};
  const std::vector<EdgeUpdate> updates = {Del(1, "r", 2), Add(3, "r", 4),
                                           Add(1, "r", 2), Del(2, "r", 3),
                                           Add(2, "r", 3), Add(1, "r", 2),
                                           Del(3, "r", 4)};
  const auto expected =
      ExpectMixedWindowsMatchSequential(queries, setup, updates, "DeleteReinsert");
  ASSERT_EQ(expected.size(), updates.size());
  EXPECT_EQ(NewEmbeddings(expected[1]), 2u);  // (2,3,4) + edge (3,4)
  EXPECT_EQ(NewEmbeddings(expected[2]), 2u);  // (1,2,3) + edge (1,2)
  EXPECT_EQ(NewEmbeddings(expected[4]), 3u);  // (1,2,3), (2,3,4) + edge (2,3)
  EXPECT_FALSE(expected[5].changed);          // duplicate
}

/// Random windows over a tiny vertex pool: inserts, deletions of recent
/// edges (often inside the window that inserted them), re-inserts of recent
/// victims, duplicates and absent deletions, on repeated-label chains and
/// cyclic paths.
TEST_F(MixedWindowTest, RandomMixedWindowsOnChainsAndCycles) {
  const auto queries = Parse({
      "(?a)-[r]->(?b); (?b)-[r]->(?c); (?c)-[r]->(?d)",
      "(?a)-[r]->(?b); (?b)-[r]->(?c)",
      "(?a)-[r]->(?b)",
      "(?a)-[r]->(?b); (?b)-[r]->(?a)",
      "(?a)-[r]->(?b); (?b)-[r]->(?c); (?c)-[r]->(?a)",
      "(?a)-[r]->(?b); (?b)-[s]->(?c); (?c)-[r]->(?a)",
      "(?a)-[r]->(?b); (?b)-[r]->(?b)",
      "(v0)-[r]->(?b); (?b)-[s]->(?c)",
      "(?a)-[s]->(?b); (?a)-[r]->(?c); (?c)-[r]->(?d)",
  });
  Rng rng(41);
  std::vector<EdgeUpdate> updates;
  std::vector<EdgeUpdate> live;
  std::vector<EdgeUpdate> deleted;
  for (int i = 0; i < 600; ++i) {
    const uint64_t pick = rng.Next(10);
    if (pick < 3 && !live.empty()) {
      // Delete a recent edge.
      const size_t k = live.size() - 1 - rng.Next(std::min<size_t>(live.size(), 8));
      EdgeUpdate u = live[k];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      deleted.push_back(u);
      u.op = UpdateOp::kDelete;
      updates.push_back(u);
    } else if (pick < 4 && !deleted.empty()) {
      // Re-insert a recent victim.
      const size_t k =
          deleted.size() - 1 - rng.Next(std::min<size_t>(deleted.size(), 4));
      EdgeUpdate u = deleted[k];
      deleted.erase(deleted.begin() + static_cast<std::ptrdiff_t>(k));
      live.push_back(u);
      updates.push_back(u);
    } else if (pick < 5 && !updates.empty()) {
      // Exact repeat of an earlier update: a duplicate insert or an absent
      // deletion (or, after churn, an effective one).
      const EdgeUpdate u = updates[rng.Next(updates.size())];
      updates.push_back(u);
      auto same = [&](const EdgeUpdate& e) {
        return e.src == u.src && e.dst == u.dst && e.label == u.label;
      };
      live.erase(std::remove_if(live.begin(), live.end(), same), live.end());
      deleted.erase(std::remove_if(deleted.begin(), deleted.end(), same),
                    deleted.end());
      if (u.op == UpdateOp::kAdd) live.push_back(u);
    } else {
      EdgeUpdate u = Add(static_cast<int>(rng.Next(5)), rng.Next(4) == 0 ? "s" : "r",
                         static_cast<int>(rng.Next(5)));
      auto same = [&](const EdgeUpdate& e) {
        return e.src == u.src && e.dst == u.dst && e.label == u.label;
      };
      if (std::none_of(live.begin(), live.end(), same)) live.push_back(u);
      deleted.erase(std::remove_if(deleted.begin(), deleted.end(), same),
                    deleted.end());
      updates.push_back(u);
    }
  }
  const auto expected =
      ExpectMixedWindowsMatchSequential(queries, {}, updates, "RandomMixed");
  uint64_t total = 0;
  for (const UpdateResult& r : expected) total += NewEmbeddings(r);
  EXPECT_GT(total, 100u);
}

TEST_F(MixedWindowTest, BudgetTripRestoresTheSeenEdgesOfTheUnappliedSuffix) {
  // A budget trip cuts a mixed window short. The applied prefix's retired
  // rows are erased, and the pre-pass's seen-edge changes for the suffix —
  // inserts and deletions alike — are undone, newest first: the state must
  // equal sequential execution of the applied prefix.
  const auto queries = Parse({"(?a)-[r]->(?b); (?b)-[r]->(?c)", "(?x)-[r]->(?y)"});
  std::vector<EdgeUpdate> setup;
  for (int i = 0; i < 40; ++i) setup.push_back(Add(i, "r", (i + 1) % 40));
  std::vector<EdgeUpdate> updates;
  for (int i = 0; i < 300; ++i) {
    // Insert-then-delete pairs of one edge, and deletions of setup edges.
    updates.push_back(Add(i % 40, "r", 100 + i));
    updates.push_back(Del(i % 40, "r", 100 + i));
    if (i % 8 == 0) updates.push_back(Del(i % 40, "r", (i % 40 + 1) % 40));
  }
  for (EngineKind kind : {EngineKind::kTric, EngineKind::kTricPlus}) {
    auto batched = CreateEngine(kind);
    for (QueryId qid = 0; qid < queries.size(); ++qid) batched->AddQuery(qid, queries[qid]);
    for (const EdgeUpdate& u : setup) batched->ApplyUpdate(u);
    Budget budget;
    budget.SetDeadlineAfter(-1.0);  // trips at the sampled poll
    batched->set_budget(&budget);
    const std::vector<UpdateResult> got = batched->ApplyBatch(updates.data(), updates.size());
    ASSERT_GT(got.size(), 0u) << batched->name();
    ASSERT_LT(got.size(), updates.size()) << batched->name();
    EXPECT_TRUE(got.back().timed_out) << batched->name();

    auto sequential = CreateEngine(kind);
    for (QueryId qid = 0; qid < queries.size(); ++qid)
      sequential->AddQuery(qid, queries[qid]);
    for (const EdgeUpdate& u : setup) sequential->ApplyUpdate(u);
    for (size_t k = 0; k < got.size(); ++k) sequential->ApplyUpdate(updates[k]);
    EXPECT_EQ(batched->StateFingerprint(), sequential->StateFingerprint())
        << batched->name() << " cut after " << got.size() << " updates";
  }
}

TEST(BatchAgreementDirected, RunStreamBatchedMatchesSequentialStats) {
  // The driver-level entry point: RunStream with batch_window > 1 must report
  // the same aggregate stats as the classic per-update loop.
  StringInterner in;
  auto r1 = ParsePattern("(?a)-[knows]->(?b); (?b)-[knows]->(?c)", in);
  auto r2 = ParsePattern("(?p)-[posted]->(?m)", in);
  ASSERT_TRUE(r1.ok && r2.ok);

  auto interner = std::make_shared<StringInterner>(in);
  UpdateStream stream(interner);
  Rng rng(42);
  LabelId knows = interner->Intern("knows");
  LabelId posted = interner->Intern("posted");
  for (int i = 0; i < 200; ++i) {
    stream.Append({interner->Intern("p" + std::to_string(rng.Next(9))),
                   rng.Next(2) == 0 ? knows : posted,
                   interner->Intern("p" + std::to_string(rng.Next(9))),
                   UpdateOp::kAdd});
  }

  for (EngineKind kind : {EngineKind::kTricPlus, EngineKind::kInc}) {
    auto seq_engine = CreateEngine(kind);
    seq_engine->AddQuery(0, r1.pattern);
    seq_engine->AddQuery(1, r2.pattern);
    RunStats seq = RunStream(*seq_engine, stream);

    auto batch_engine = CreateEngine(kind);
    batch_engine->AddQuery(0, r1.pattern);
    batch_engine->AddQuery(1, r2.pattern);
    RunConfig config;
    config.batch_window = 16;
    config.batch_threads = 4;
    RunStats bat = RunStream(*batch_engine, stream, config);

    EXPECT_EQ(bat.updates_applied, seq.updates_applied);
    EXPECT_EQ(bat.new_embeddings, seq.new_embeddings);
    EXPECT_EQ(bat.queries_satisfied, seq.queries_satisfied);
    EXPECT_FALSE(bat.timed_out);
  }
}

}  // namespace
}  // namespace gstream
