#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/driver.h"
#include "engine/engine.h"
#include "graph/stream.h"
#include "query/parser.h"
#include "workload/query_gen.h"
#include "workload/snb.h"
#include "workload/taxi.h"

namespace gstream {
namespace {

/// Query-lifecycle (churn) suite: `RemoveQuery` across all eight engines.
/// The invariants under test:
///  * randomized interleavings of AddQuery / RemoveQuery / updates agree
///    with the naive oracle, update by update;
///  * removing a query never changes a surviving query's results;
///  * `MemoryBytes()` returns to the pre-registration baseline after
///    removing everything that was registered (shared-view GC);
///  * the checked lifecycle API fails loudly on contract violations;
///  * mixed event streams run through batch windows byte-identically to
///    sequential execution, with `final_join_passes` tracking the live QDB.

std::vector<EngineKind> AllEngineKinds() {
  std::vector<EngineKind> kinds = PaperEngineKinds();
  kinds.push_back(EngineKind::kNaive);
  return kinds;
}

QueryPattern Parse(const std::string& text, StringInterner& in) {
  ParseResult r = ParsePattern(text, in);
  EXPECT_TRUE(r.ok) << r.error;
  return r.pattern;
}

void ExpectSameResult(const UpdateResult& got, const UpdateResult& want,
                      const std::string& label) {
  ASSERT_EQ(got.changed, want.changed) << label;
  ASSERT_EQ(got.per_query, want.per_query) << label;
  ASSERT_EQ(got.triggered, want.triggered) << label;
}

struct ChurnCase {
  const char* name;
  const char* dataset;  // snb | taxi
  size_t stream_len;
  size_t pool_queries;
  size_t initial_queries;
  double avg_size;
  double overlap;
  uint64_t seed;
  uint32_t add_period;     // ~1 add per `add_period` events
  uint32_t remove_period;  // ~1 remove per `remove_period` events
  bool with_deletions;
};

std::ostream& operator<<(std::ostream& os, const ChurnCase& c) { return os << c.name; }

class ChurnAgreementTest : public ::testing::TestWithParam<ChurnCase> {};

workload::Workload MakeWorkload(const ChurnCase& c) {
  if (std::string(c.dataset) == "taxi") {
    workload::TaxiConfig config;
    config.num_updates = c.stream_len;
    config.seed = c.seed;
    config.num_zones = 12;
    return workload::GenerateTaxi(config);
  }
  workload::SnbConfig config;
  config.num_updates = c.stream_len;
  config.seed = c.seed;
  config.num_places = 10;
  config.num_tags = 10;
  return workload::GenerateSnb(config);
}

TEST_P(ChurnAgreementTest, RandomizedInterleavingsAgreeWithOracle) {
  const ChurnCase& c = GetParam();
  workload::Workload w = MakeWorkload(c);

  workload::QueryGenConfig qcfg;
  qcfg.num_queries = c.pool_queries;
  qcfg.avg_size = c.avg_size;
  qcfg.selectivity = 0.4;
  qcfg.overlap = c.overlap;
  qcfg.seed = c.seed * 131 + 5;
  workload::QuerySet qs = workload::GenerateQueries(w, qcfg);

  // Script one deterministic interleaving, then replay it against every
  // engine with a naive oracle mirroring each lifecycle call.
  std::vector<StreamEvent> events;
  {
    Rng rng(c.seed * 977 + 3);
    std::vector<QueryId> live;
    QueryId next_qid = 0;
    for (; next_qid < c.initial_queries && next_qid < qs.queries.size(); ++next_qid) {
      events.push_back(StreamEvent::Add(next_qid, qs.queries[next_qid]));
      live.push_back(next_qid);
    }
    size_t pos = 0;
    while (pos < w.stream.size()) {
      if (next_qid < qs.queries.size() && rng.Next(c.add_period) == 0) {
        events.push_back(StreamEvent::Add(next_qid, qs.queries[next_qid]));
        live.push_back(next_qid);
        ++next_qid;
        continue;
      }
      if (!live.empty() && rng.Next(c.remove_period) == 0) {
        const size_t pick = rng.Next(live.size());
        events.push_back(StreamEvent::Remove(live[pick]));
        live.erase(live.begin() + pick);
        continue;
      }
      EdgeUpdate u = w.stream[pos++];
      if (c.with_deletions && rng.Next(11) == 0) u.op = UpdateOp::kDelete;
      events.push_back(StreamEvent::Update(u));
    }
  }

  for (EngineKind kind : PaperEngineKinds()) {
    auto engine = CreateEngine(kind);
    auto oracle = CreateEngine(EngineKind::kNaive);
    size_t step = 0;
    for (const StreamEvent& ev : events) {
      const std::string label = std::string(c.name) + ": " + engine->name() +
                                " at event " + std::to_string(step++);
      switch (ev.kind) {
        case StreamEvent::Kind::kAddQuery:
          engine->AddQuery(ev.qid, ev.query);
          oracle->AddQuery(ev.qid, ev.query);
          break;
        case StreamEvent::Kind::kRemoveQuery:
          ASSERT_TRUE(engine->RemoveQuery(ev.qid)) << label;
          ASSERT_TRUE(oracle->RemoveQuery(ev.qid)) << label;
          ASSERT_FALSE(engine->HasQuery(ev.qid)) << label;
          break;
        case StreamEvent::Kind::kUpdate: {
          UpdateResult got = engine->ApplyUpdate(ev.update);
          UpdateResult want = oracle->ApplyUpdate(ev.update);
          ExpectSameResult(got, want, label);
          break;
        }
      }
      ASSERT_EQ(engine->NumQueries(), oracle->NumQueries());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedChurn, ChurnAgreementTest,
    ::testing::Values(
        ChurnCase{"SnbSteadyChurn", "snb", 220, 24, 8, 4.0, 0.35, 1, 12, 14, false},
        ChurnCase{"SnbHighOverlapSharedPrefixes", "snb", 200, 22, 10, 4.0, 0.8, 2,
                  10, 12, false},
        ChurnCase{"SnbChurnWithDeletions", "snb", 180, 20, 8, 3.0, 0.5, 3, 10, 12,
                  true},
        ChurnCase{"TaxiChurn", "taxi", 200, 20, 6, 3.0, 0.35, 4, 9, 11, false},
        ChurnCase{"SnbMassRemovalWaves", "snb", 160, 30, 16, 4.0, 0.5, 5, 20, 4,
                  false}),
    [](const ::testing::TestParamInfo<ChurnCase>& info) { return info.param.name; });

TEST(ChurnDirected, RemovalNeverChangesSurvivingQueryResults) {
  // Two queries sharing a covering-path prefix; removing one mid-stream
  // must leave the survivor's notifications identical to a run where the
  // removed query never existed — the trie GC may only collect nodes the
  // removed query alone pinned.
  const char* survivor_text = "(?a)-[knows]->(?b); (?b)-[knows]->(?c)";
  const char* doomed_text =
      "(?a)-[knows]->(?b); (?b)-[knows]->(?c); (?c)-[likes]->(?d)";

  for (EngineKind kind : AllEngineKinds()) {
    StringInterner in;
    auto subject = CreateEngine(kind);   // survivor + doomed, doomed removed
    auto control = CreateEngine(kind);   // survivor only, from the start
    subject->AddQuery(0, Parse(survivor_text, in));
    subject->AddQuery(1, Parse(doomed_text, in));
    control->AddQuery(0, Parse(survivor_text, in));

    LabelId knows = in.Intern("knows");
    LabelId likes = in.Intern("likes");
    auto v = [&](int i) { return in.Intern("v" + std::to_string(i)); };
    Rng rng(17);
    for (int i = 0; i < 150; ++i) {
      if (i == 60) {
        ASSERT_TRUE(subject->RemoveQuery(1)) << subject->name();
        EXPECT_FALSE(subject->HasQuery(1));
        EXPECT_TRUE(subject->HasQuery(0));
      }
      EdgeUpdate u{v(static_cast<int>(rng.Next(7))),
                   rng.Next(3) == 0 ? likes : knows,
                   v(static_cast<int>(rng.Next(7))),
                   rng.Next(9) == 0 ? UpdateOp::kDelete : UpdateOp::kAdd};
      UpdateResult got = subject->ApplyUpdate(u);
      UpdateResult want = control->ApplyUpdate(u);
      // Before the removal the subject also carries query 1: compare only
      // query 0's share. After it, results must be identical outright.
      if (i < 60) {
        auto count_of = [](const UpdateResult& r, QueryId qid) -> uint64_t {
          for (const auto& [q, n] : r.per_query)
            if (q == qid) return n;
          return 0;
        };
        ASSERT_EQ(count_of(got, 0), count_of(want, 0))
            << subject->name() << " at update " << i;
      } else {
        ExpectSameResult(got, want, subject->name() + " at update " +
                                        std::to_string(i));
      }
    }
  }
}

TEST(ChurnDirected, MemoryReturnsToBaselineAfterRemovingEverything) {
  // The GC acceptance gauge: register a substantial QDB, remove it all,
  // and the engine's self-reported memory must land within 10% of the
  // pre-registration baseline — shared views, trie nodes, cached indexes,
  // postings, and their container capacity all released.
  workload::SnbConfig wcfg;
  wcfg.num_updates = 200;
  wcfg.seed = 11;
  workload::Workload w = workload::GenerateSnb(wcfg);
  workload::QueryGenConfig qcfg;
  qcfg.num_queries = 40;
  qcfg.avg_size = 5.0;
  qcfg.selectivity = 0.3;
  qcfg.overlap = 0.5;
  qcfg.seed = 23;
  workload::QuerySet qs = workload::GenerateQueries(w, qcfg);

  for (EngineKind kind : AllEngineKinds()) {
    auto engine = CreateEngine(kind);
    const size_t baseline = engine->MemoryBytes();
    for (QueryId qid = 0; qid < qs.queries.size(); ++qid)
      engine->AddQuery(qid, qs.queries[qid]);
    const size_t loaded = engine->MemoryBytes();
    EXPECT_GT(loaded, baseline) << engine->name();
    for (QueryId qid = 0; qid < qs.queries.size(); ++qid)
      ASSERT_TRUE(engine->RemoveQuery(qid)) << engine->name();
    EXPECT_EQ(engine->NumQueries(), 0u);
    const size_t after = engine->MemoryBytes();
    EXPECT_LE(after, baseline + baseline / 10)
        << engine->name() << ": baseline " << baseline << ", loaded " << loaded
        << ", after removal " << after;
  }
}

TEST(ChurnDirected, MemoryShrinksUnderChurnWithLiveStream) {
  // Under a live stream the engine keeps stream state (edge set, graph
  // store) and its transient-peak high-water mark, so removal cannot return
  // to the fresh baseline — but it must strictly undercut an identical
  // engine that kept all its queries: the removed queries' views, trie
  // nodes, cached indexes, and postings are really gone.
  StringInterner in;
  const char* survivor_text = "(?x)-[likes]->(?y)";
  const char* doomed[] = {
      "(?a)-[knows]->(?b); (?b)-[knows]->(?c)",
      "(?a)-[knows]->(?b); (?b)-[likes]->(?c); (?c)-[likes]->(?d)",
      "(?a)-[likes]->(?b); (?b)-[knows]->(?c)",
  };
  for (EngineKind kind : AllEngineKinds()) {
    auto subject = CreateEngine(kind);
    auto control = CreateEngine(kind);
    for (QueryId q = 0; q < 4; ++q) {
      const char* text = q == 0 ? survivor_text : doomed[q - 1];
      subject->AddQuery(q, Parse(text, in));
      control->AddQuery(q, Parse(text, in));
    }

    LabelId knows = in.Intern("knows");
    LabelId likes = in.Intern("likes");
    auto v = [&](int i) { return in.Intern("n" + std::to_string(i)); };
    Rng rng(31);
    for (int i = 0; i < 120; ++i) {
      EdgeUpdate u{v(static_cast<int>(rng.Next(9))),
                   rng.Next(2) == 0 ? likes : knows,
                   v(static_cast<int>(rng.Next(9))), UpdateOp::kAdd};
      subject->ApplyUpdate(u);
      control->ApplyUpdate(u);
    }
    const size_t before_removal = subject->MemoryBytes();
    for (QueryId q = 1; q < 4; ++q) ASSERT_TRUE(subject->RemoveQuery(q));

    const size_t subject_bytes = subject->MemoryBytes();
    const size_t control_bytes = control->MemoryBytes();
    EXPECT_LT(subject_bytes, control_bytes)
        << subject->name() << ": subject " << subject_bytes << " vs control "
        << control_bytes;
    EXPECT_LT(subject_bytes, before_removal) << subject->name();

    // And the survivor still answers: a fresh likes edge triggers it.
    UpdateResult got =
        subject->ApplyUpdate({v(100), likes, v(101), UpdateOp::kAdd});
    UpdateResult want =
        control->ApplyUpdate({v(100), likes, v(101), UpdateOp::kAdd});
    auto count_of = [](const UpdateResult& r, QueryId qid) -> uint64_t {
      for (const auto& [q, n] : r.per_query)
        if (q == qid) return n;
      return 0;
    };
    EXPECT_EQ(count_of(got, 0), count_of(want, 0)) << subject->name();
    EXPECT_EQ(count_of(got, 0), 1u) << subject->name();
  }
}

TEST(ChurnDirected, MidStreamAddQueryBackfillsEachLabelFromItsLiveEdges) {
  // A base view first referenced mid-stream is filled from the live edges
  // of its own label. Three kinds of label at registration time: one that
  // never occurred, one whose every edge was deleted, and ones with live
  // edges (with a constant endpoint too, which filters inside the label).
  // The new queries' results over the following updates must equal the
  // oracle's, which recounts from the whole graph.
  const char* initial = "(?a)-[knows]->(?b); (?b)-[knows]->(?c)";
  const char* added[] = {
      "(?a)-[follows]->(?b); (?b)-[knows]->(?c)",  // never occurred
      "(?a)-[gone]->(?b); (?b)-[likes]->(?c)",     // every edge deleted
      "(?a)-[likes]->(?b); (?b)-[knows]->(?c)",    // live edges
      "(m1)-[knows]->(?b); (?b)-[likes]->(?c)",    // live, constant source
  };
  constexpr QueryId kFirstAdded = 1;
  for (EngineKind kind : PaperEngineKinds()) {
    StringInterner in;
    auto engine = CreateEngine(kind);
    auto oracle = CreateEngine(EngineKind::kNaive);
    engine->AddQuery(0, Parse(initial, in));
    oracle->AddQuery(0, Parse(initial, in));

    const LabelId knows = in.Intern("knows");
    const LabelId likes = in.Intern("likes");
    const LabelId gone = in.Intern("gone");
    const LabelId follows = in.Intern("follows");
    auto v = [&](int i) { return in.Intern("m" + std::to_string(i)); };
    const auto apply = [&](const EdgeUpdate& u, const std::string& label) {
      ExpectSameResult(engine->ApplyUpdate(u), oracle->ApplyUpdate(u), label);
    };

    // Before registration: knows/likes/gone edges, some knows deletions,
    // then every gone edge deleted.
    Rng rng(43);
    std::vector<EdgeUpdate> gone_edges;
    for (int i = 0; i < 90; ++i) {
      const uint32_t pick = static_cast<uint32_t>(rng.Next(3));
      EdgeUpdate u{v(static_cast<int>(rng.Next(6))),
                   pick == 0 ? knows : pick == 1 ? likes : gone,
                   v(static_cast<int>(rng.Next(6))), UpdateOp::kAdd};
      if (u.label == knows && rng.Next(5) == 0) u.op = UpdateOp::kDelete;
      if (u.label == gone) gone_edges.push_back(u);
      apply(u, engine->name() + " before registration, update " +
                   std::to_string(i));
    }
    ASSERT_FALSE(gone_edges.empty());
    for (EdgeUpdate u : gone_edges) {
      u.op = UpdateOp::kDelete;
      apply(u, engine->name() + " deleting a gone edge");
    }

    for (QueryId q = 0; q < 4; ++q) {
      engine->AddQuery(kFirstAdded + q, Parse(added[q], in));
      oracle->AddQuery(kFirstAdded + q, Parse(added[q], in));
    }

    // After registration: every label, some deletions. Each added query must
    // see matches, so the comparison covers every backfill.
    std::vector<uint64_t> matches(kFirstAdded + 4, 0);
    const LabelId labels[] = {knows, likes, gone, follows};
    for (int i = 0; i < 160; ++i) {
      EdgeUpdate u{v(static_cast<int>(rng.Next(6))), labels[rng.Next(4)],
                   v(static_cast<int>(rng.Next(6))),
                   rng.Next(8) == 0 ? UpdateOp::kDelete : UpdateOp::kAdd};
      const UpdateResult want = oracle->ApplyUpdate(u);
      ExpectSameResult(engine->ApplyUpdate(u), want,
                       engine->name() + " after registration, update " +
                           std::to_string(i));
      for (const auto& [qid, n] : want.per_query) matches[qid] += n;
    }
    for (QueryId q = kFirstAdded; q < kFirstAdded + 4; ++q)
      EXPECT_GT(matches[q], 0u) << "query " << q << " never matched";
  }
}

TEST(ChurnDirected, MixedEventBatchWindowsMatchSequentialByteForByte) {
  // Removals/additions at window boundaries: a scripted mixed stream is
  // replayed (a) sequentially via ApplyUpdate and (b) through ApplyBatch
  // windows with threads, lifecycle events applied between windows. The
  // per-update results must match element for element.
  StringInterner in;
  const char* patterns[] = {
      "(?a)-[knows]->(?b); (?b)-[knows]->(?c); (?c)-[likes]->(?d)",
      "(?a)-[knows]->(?b); (?a)-[likes]->(?c)",
      "(?x)-[likes]->(?y); (?z)-[likes]->(?y)",
      "(?p)-[likes]->(?q)",
      "(?m)-[knows]->(?n)",
  };
  std::vector<QueryPattern> pool;
  for (const char* p : patterns) pool.push_back(Parse(p, in));

  LabelId knows = in.Intern("knows");
  LabelId likes = in.Intern("likes");
  auto v = [&](int i) { return in.Intern("v" + std::to_string(i)); };

  // Script: windows of updates separated by lifecycle events.
  std::vector<StreamEvent> events;
  {
    Rng rng(53);
    QueryId next_qid = 0;
    std::vector<QueryId> live;
    for (; next_qid < 3; ++next_qid) {
      events.push_back(StreamEvent::Add(next_qid, pool[next_qid]));
      live.push_back(next_qid);
    }
    for (int block = 0; block < 8; ++block) {
      for (int i = 0; i < 24; ++i) {
        events.push_back(StreamEvent::Update(
            {v(static_cast<int>(rng.Next(6))), rng.Next(3) == 0 ? likes : knows,
             v(static_cast<int>(rng.Next(6))),
             rng.Next(10) == 0 ? UpdateOp::kDelete : UpdateOp::kAdd}));
      }
      if (!live.empty() && block % 2 == 0) {
        const size_t pick = rng.Next(live.size());
        events.push_back(StreamEvent::Remove(live[pick]));
        live.erase(live.begin() + pick);
      }
      events.push_back(StreamEvent::Add(next_qid, pool[next_qid % pool.size()]));
      live.push_back(next_qid++);
    }
  }

  for (EngineKind kind : AllEngineKinds()) {
    for (const auto& [window, threads] : std::vector<std::pair<size_t, int>>{
             {8, 1}, {16, 4}}) {
      auto sequential = CreateEngine(kind);
      auto batched = CreateEngine(kind);
      batched->SetBatchThreads(threads);

      size_t i = 0;
      while (i < events.size()) {
        const StreamEvent& ev = events[i];
        if (ev.kind == StreamEvent::Kind::kAddQuery) {
          sequential->AddQuery(ev.qid, ev.query);
          batched->AddQuery(ev.qid, ev.query);
          ++i;
          continue;
        }
        if (ev.kind == StreamEvent::Kind::kRemoveQuery) {
          ASSERT_TRUE(sequential->RemoveQuery(ev.qid));
          ASSERT_TRUE(batched->RemoveQuery(ev.qid));
          ++i;
          continue;
        }
        size_t j = i;
        std::vector<EdgeUpdate> run;
        while (j < events.size() && events[j].kind == StreamEvent::Kind::kUpdate)
          run.push_back(events[j++].update);
        std::vector<UpdateResult> expected;
        for (const EdgeUpdate& u : run) expected.push_back(sequential->ApplyUpdate(u));
        size_t pos = 0;
        while (pos < run.size()) {
          const size_t n = std::min(window, run.size() - pos);
          std::vector<UpdateResult> got = batched->ApplyBatch(&run[pos], n);
          ASSERT_EQ(got.size(), n);
          for (size_t k = 0; k < n; ++k) {
            ExpectSameResult(got[k], expected[pos + k],
                             sequential->name() + " window=" +
                                 std::to_string(window) + " threads=" +
                                 std::to_string(threads) + " at update " +
                                 std::to_string(pos + k));
          }
          pos += n;
        }
        i = j;
      }
    }
  }
}

TEST(ChurnDirected, FinalJoinPassesTrackTheLiveQdb) {
  // One pass per (affected query, window) with shared finalization off:
  // after removing one of two affected queries, a window costs one pass
  // instead of two — the removed query must not leave finalize work behind.
  // (q0 and q1 are signature-equal, so the default shared mode collapses
  // them into one pass per window from the start; that mode is asserted
  // separately below and in shared_finalize_test.)
  StringInterner in;
  QueryPattern q0 = Parse("(?a)-[r]->(?b)", in);
  QueryPattern q1 = Parse("(?x)-[r]->(?y)", in);
  LabelId rl = in.Intern("r");
  auto v = [&](int i) { return in.Intern("v" + std::to_string(i)); };

  const EngineKind view_kinds[] = {EngineKind::kTric, EngineKind::kTricPlus,
                                   EngineKind::kInv,  EngineKind::kInvPlus,
                                   EngineKind::kInc,  EngineKind::kIncPlus};
  for (EngineKind kind : view_kinds) {
    auto engine = CreateEngine(kind);
    engine->SetSharedFinalize(false);
    auto shared = CreateEngine(kind);
    engine->AddQuery(0, q0);
    engine->AddQuery(1, q1);
    shared->AddQuery(0, q0);
    shared->AddQuery(1, q1);

    std::vector<EdgeUpdate> window1, window2;
    for (int i = 0; i < 8; ++i)
      window1.push_back({v(i), rl, v(i + 1), UpdateOp::kAdd});
    for (int i = 20; i < 28; ++i)
      window2.push_back({v(i), rl, v(i + 1), UpdateOp::kAdd});

    engine->ApplyBatch(window1.data(), window1.size());
    shared->ApplyBatch(window1.data(), window1.size());
    const uint64_t after_first = engine->final_join_passes();
    EXPECT_EQ(after_first, 2u) << engine->name() << " (two live queries)";
    EXPECT_EQ(shared->final_join_passes(), 1u)
        << shared->name() << " (signature-equal pair shares one pass)";

    ASSERT_TRUE(engine->RemoveQuery(1));
    ASSERT_TRUE(shared->RemoveQuery(1));
    engine->ApplyBatch(window2.data(), window2.size());
    shared->ApplyBatch(window2.data(), window2.size());
    EXPECT_EQ(engine->final_join_passes(), after_first + 1)
        << engine->name() << " (one survivor)";
    EXPECT_EQ(shared->final_join_passes(), 2u)
        << shared->name() << " (survivor runs its own pass)";
    EXPECT_EQ(shared->shared_finalize_groups(), 1u)
        << shared->name() << " (only window 1 fanned out)";
  }
}

TEST(ChurnDirected, LifecyclePreconditionsFailLoudly) {
  StringInterner in;
  QueryPattern valid = Parse("(?a)-[r]->(?b)", in);
  for (EngineKind kind : AllEngineKinds()) {
    auto engine = CreateEngine(kind);
    engine->AddQuery(7, valid);
    EXPECT_TRUE(engine->HasQuery(7));
    EXPECT_FALSE(engine->HasQuery(8));

    // Unknown removals are a clean no-op...
    EXPECT_FALSE(engine->RemoveQuery(8));
    EXPECT_EQ(engine->NumQueries(), 1u);

    // ...but a duplicate id or an invalid pattern dies before any engine
    // state is touched (the previously-unenforced "qid must be fresh").
    EXPECT_DEATH(engine->AddQuery(7, valid), "duplicate query id");
    EXPECT_DEATH(engine->AddQuery(9, QueryPattern{}), "invalid query pattern");

    // Remove-then-re-add with the same id is legal and starts fresh.
    EXPECT_TRUE(engine->RemoveQuery(7));
    engine->AddQuery(7, valid);
    EXPECT_TRUE(engine->HasQuery(7));
  }
}

TEST(ChurnDirected, RunMixedStreamReportsPhasesAndMatchesRunStream) {
  // A mixed stream of pure updates must agree with RunStream's aggregates,
  // and the phase accounting must see every lifecycle event.
  StringInterner in;
  QueryPattern q = Parse("(?a)-[knows]->(?b); (?b)-[knows]->(?c)", in);
  auto interner = std::make_shared<StringInterner>(in);
  UpdateStream stream(interner);
  Rng rng(42);
  LabelId knows = interner->Intern("knows");
  for (int i = 0; i < 150; ++i) {
    stream.Append({interner->Intern("p" + std::to_string(rng.Next(8))), knows,
                   interner->Intern("p" + std::to_string(rng.Next(8))),
                   UpdateOp::kAdd});
  }

  for (EngineKind kind : {EngineKind::kTricPlus, EngineKind::kInc}) {
    auto plain = CreateEngine(kind);
    plain->AddQuery(0, q);
    RunStats want = RunStream(*plain, stream);

    std::vector<StreamEvent> events;
    events.push_back(StreamEvent::Add(0, q));
    for (const EdgeUpdate& u : stream.updates())
      events.push_back(StreamEvent::Update(u));
    auto mixed = CreateEngine(kind);
    MixedRunStats got = RunMixedStream(*mixed, events);

    EXPECT_EQ(got.updates_applied, want.updates_applied);
    EXPECT_EQ(got.new_embeddings, want.new_embeddings);
    EXPECT_EQ(got.queries_satisfied, want.queries_satisfied);
    EXPECT_EQ(got.queries_added, 1u);
    EXPECT_EQ(got.queries_removed, 0u);
    EXPECT_FALSE(got.timed_out);

    // And batched mixed runs agree with sequential mixed runs.
    std::vector<StreamEvent> churny = events;
    churny.push_back(StreamEvent::Remove(0));
    churny.push_back(StreamEvent::Add(3, q));
    for (const EdgeUpdate& u : stream.updates())
      churny.push_back(StreamEvent::Update(u));

    auto seq_engine = CreateEngine(kind);
    MixedRunStats seq = RunMixedStream(*seq_engine, churny);
    auto batch_engine = CreateEngine(kind);
    RunConfig config;
    config.batch_window = 16;
    config.batch_threads = 4;
    MixedRunStats bat = RunMixedStream(*batch_engine, churny, config);

    EXPECT_EQ(bat.updates_applied, seq.updates_applied);
    EXPECT_EQ(bat.new_embeddings, seq.new_embeddings);
    EXPECT_EQ(bat.queries_added, seq.queries_added);
    EXPECT_EQ(bat.queries_removed, seq.queries_removed);
    EXPECT_FALSE(bat.timed_out);
  }
}

}  // namespace
}  // namespace gstream
