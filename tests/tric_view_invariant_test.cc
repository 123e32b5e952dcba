#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graphdb/executor.h"
#include "graphdb/store.h"
#include "query/parser.h"
#include "tric/tric_engine.h"
#include "workload/query_gen.h"
#include "workload/snb.h"

namespace gstream {
namespace {

using tric::TricEngine;
using tric::TrieNode;

/// Builds the chain QueryPattern spelled by a root-to-node trie signature:
/// consecutive edges join target->source; literal endpoints become literal
/// vertices, variable endpoints fresh variables (genericized semantics: no
/// repeated-variable constraints).
QueryPattern ChainOfSignature(const std::vector<GenericEdgePattern>& sig) {
  QueryPattern q;
  uint32_t prev = UINT32_MAX;
  for (size_t i = 0; i < sig.size(); ++i) {
    uint32_t s = i == 0 ? (sig[i].src_is_var() ? q.AddVariable()
                                               : q.AddLiteral(sig[i].src))
                        : prev;
    uint32_t t = sig[i].dst_is_var() ? q.AddVariable() : q.AddLiteral(sig[i].dst);
    q.AddEdge(s, sig[i].label, t);
    prev = t;
  }
  return q;
}

/// Checks every trie node's view against the set of embeddings of its
/// root-to-node path signature in `store`, enumerated by the independent
/// backtracking executor. Returns the number of nodes checked.
size_t ExpectViewsMatchGraph(const TricEngine& engine, const graphdb::GraphStore& store,
                             const std::string& what) {
  graphdb::MatchExecutor exec(&store);
  size_t checked = 0;
  engine.forest().ForEachNode([&](const TrieNode& node) {
    // Reconstruct the signature root -> node.
    std::vector<GenericEdgePattern> sig;
    for (const TrieNode* n = &node; n != nullptr; n = n->parent)
      sig.insert(sig.begin(), n->pattern);

    QueryPattern chain = ChainOfSignature(sig);
    std::set<std::vector<VertexId>> expected;
    exec.Enumerate(chain, graphdb::PlanQuery(chain),
                   [&](const std::vector<VertexId>& assignment) {
                     // Chain vertex order == view column order by
                     // construction of ChainOfSignature.
                     expected.insert(assignment);
                     return true;
                   });

    std::set<std::vector<VertexId>> actual;
    const Relation& view = *node.view;
    for (size_t r = 0; r < view.NumRows(); ++r)
      actual.insert(std::vector<VertexId>(view.Row(r), view.Row(r) + view.arity()));

    ASSERT_EQ(actual.size(), view.NumRows()) << what << ": duplicate view rows";
    ASSERT_EQ(actual, expected) << what << ": trie node depth " << node.depth
                                << " diverged (" << expected.size()
                                << " expected rows)";
    ++checked;
  });
  return checked;
}

/// Inserts `updates` into `engine` and `store`; returns the distinct edges.
std::vector<EdgeUpdate> ApplyInserts(TricEngine& engine, graphdb::GraphStore& store,
                                     const std::vector<EdgeUpdate>& updates) {
  std::vector<EdgeUpdate> applied;
  for (const auto& u : updates) {
    engine.ApplyUpdate(u);
    if (store.AddEdge(u.src, u.label, u.dst)) applied.push_back(u);
  }
  return applied;
}

/// The deletion phase over the `applied` edges: deletes a seeded third of
/// them, re-adding a random earlier victim after about every third deletion,
/// so views shrink and regrow through the same rows. Every update changes
/// the graph.
std::vector<EdgeUpdate> DeleteThirdAndReAddStream(std::vector<EdgeUpdate> applied,
                                                  uint64_t seed) {
  Rng rng(seed);
  std::shuffle(applied.begin(), applied.end(), rng.engine());
  applied.resize(applied.size() / 3);
  std::vector<EdgeUpdate> stream;
  std::vector<EdgeUpdate> deleted;
  for (EdgeUpdate u : applied) {
    u.op = UpdateOp::kDelete;
    stream.push_back(u);
    deleted.push_back(u);
    if (rng.Next(3) != 0) continue;
    const size_t k = rng.Next(deleted.size());
    EdgeUpdate back = deleted[k];
    deleted.erase(deleted.begin() + static_cast<std::ptrdiff_t>(k));
    back.op = UpdateOp::kAdd;
    stream.push_back(back);
  }
  return stream;
}

/// Applies DeleteThirdAndReAddStream to `engine` and `store` one update at
/// a time.
void DeleteThirdAndReAdd(TricEngine& engine, graphdb::GraphStore& store,
                         std::vector<EdgeUpdate> applied, uint64_t seed) {
  for (const EdgeUpdate& u : DeleteThirdAndReAddStream(std::move(applied), seed)) {
    ASSERT_TRUE(engine.ApplyUpdate(u).changed);
    if (u.op == UpdateOp::kDelete)
      ASSERT_TRUE(store.RemoveEdge(u.src, u.label, u.dst));
    else
      ASSERT_TRUE(store.AddEdge(u.src, u.label, u.dst));
  }
}

/// Applies `updates` to `engine` through ApplyBatch windows of `window`
/// updates and to `store`, checking every trie view against the graph at
/// each window boundary. Returns the number of nodes the last check saw.
size_t ApplyBatchedAndCheck(TricEngine& engine, graphdb::GraphStore& store,
                            const std::vector<EdgeUpdate>& updates, size_t window,
                            const std::string& what) {
  size_t checked = 0;
  for (size_t pos = 0; pos < updates.size(); pos += window) {
    const size_t n = std::min(window, updates.size() - pos);
    const std::vector<UpdateResult> results = engine.ApplyBatch(&updates[pos], n);
    EXPECT_EQ(results.size(), n) << what;
    for (size_t k = pos; k < pos + n; ++k) {
      const EdgeUpdate& u = updates[k];
      if (u.op == UpdateOp::kDelete)
        store.RemoveEdge(u.src, u.label, u.dst);
      else
        store.AddEdge(u.src, u.label, u.dst);
    }
    checked = ExpectViewsMatchGraph(
        engine, store, what + " window " + std::to_string(window) + " ending at " +
                           std::to_string(pos + n));
    if (::testing::Test::HasFatalFailure()) return checked;
  }
  return checked;
}

workload::Workload SnbStream() {
  workload::SnbConfig sc;
  sc.num_updates = 500;
  sc.num_places = 10;
  sc.num_tags = 10;
  return workload::GenerateSnb(sc);
}

workload::QuerySet SnbQueries(const workload::Workload& w) {
  workload::QueryGenConfig qc;
  qc.num_queries = 40;
  qc.selectivity = 0.4;
  qc.seed = 101;
  return workload::GenerateQueries(w, qc);
}

/// THE load-bearing invariant of TRIC's answering phase: after any stream,
/// every trie node's materialized view must equal the set of embeddings of
/// its root-to-node path signature in the full graph — i.e. incremental
/// delta propagation computes exactly what a from-scratch evaluation would.
/// Verified with the independent backtracking executor.
TEST(TricViewInvariant, ViewsEqualFromScratchEvaluation) {
  workload::Workload w = SnbStream();
  workload::QuerySet qs = SnbQueries(w);

  for (bool cached : {false, true}) {
    TricEngine engine(cached);
    for (QueryId qid = 0; qid < qs.queries.size(); ++qid)
      engine.AddQuery(qid, qs.queries[qid]);

    graphdb::GraphStore store;
    ApplyInserts(engine, store, w.stream.updates());
    const size_t checked =
        ExpectViewsMatchGraph(engine, store, cached ? "TRIC+" : "TRIC");
    // The query set must have produced a real forest.
    EXPECT_GT(checked, 50u);
  }
}

/// The invariant under deletions: the retraction cascade must leave every
/// view equal to a from-scratch evaluation over the live graph, including
/// views that shrank and regrew through re-added edges.
TEST(TricViewInvariant, ViewsEqualFromScratchEvaluationAfterDeletions) {
  workload::Workload w = SnbStream();
  workload::QuerySet qs = SnbQueries(w);

  for (bool cached : {false, true}) {
    TricEngine engine(cached);
    for (QueryId qid = 0; qid < qs.queries.size(); ++qid)
      engine.AddQuery(qid, qs.queries[qid]);

    graphdb::GraphStore store;
    DeleteThirdAndReAdd(engine, store, ApplyInserts(engine, store, w.stream.updates()),
                        /*seed=*/17);
    const size_t checked =
        ExpectViewsMatchGraph(engine, store, cached ? "TRIC+" : "TRIC");
    EXPECT_GT(checked, 50u);
  }
}

/// The deletion invariant through batch windows: deletions inside an
/// ApplyBatch window (TRIC/TRIC+ keep them in the window and erase the
/// retired rows at its end) must leave every view equal to a from-scratch
/// evaluation at every window boundary.
TEST(TricViewInvariant, ViewsEqualFromScratchEvaluationAfterBatchedDeletions) {
  workload::Workload w = SnbStream();
  workload::QuerySet qs = SnbQueries(w);

  // The same edge set ApplyInserts leaves behind, as a deletion phase.
  graphdb::GraphStore scratch;
  std::vector<EdgeUpdate> applied;
  for (const auto& u : w.stream.updates())
    if (scratch.AddEdge(u.src, u.label, u.dst)) applied.push_back(u);
  const std::vector<EdgeUpdate> deletions = DeleteThirdAndReAddStream(applied, 17);

  for (size_t window : {7, 32}) {
    for (bool cached : {false, true}) {
      TricEngine engine(cached);
      for (QueryId qid = 0; qid < qs.queries.size(); ++qid)
        engine.AddQuery(qid, qs.queries[qid]);

      graphdb::GraphStore store;
      const std::string what = cached ? "TRIC+" : "TRIC";
      ApplyBatchedAndCheck(engine, store, w.stream.updates(), 64, what + " inserts");
      ASSERT_FALSE(HasFatalFailure());
      const size_t checked = ApplyBatchedAndCheck(engine, store, deletions, window, what);
      ASSERT_FALSE(HasFatalFailure());
      EXPECT_GT(checked, 50u);
    }
  }
}

/// Registers the repeated-label `r` chains of lengths 3, 2 and 1.
void AddRepeatedLabelChains(TricEngine& engine, StringInterner& in) {
  auto parse = [&](const char* p) {
    auto r = ParsePattern(p, in);
    EXPECT_TRUE(r.ok);
    return r.pattern;
  };
  engine.AddQuery(0, parse("(?a)-[r]->(?b); (?b)-[r]->(?c); (?c)-[r]->(?d)"));
  engine.AddQuery(1, parse("(?a)-[r]->(?b); (?b)-[r]->(?c)"));
  engine.AddQuery(2, parse("(?a)-[r]->(?b)"));
}

/// Every `r` edge over seven vertices (self-loops included), shuffled.
std::vector<EdgeUpdate> CompleteRGraph(StringInterner& in) {
  LabelId r = in.Intern("r");
  Rng rng(5);
  std::vector<EdgeUpdate> updates;
  for (uint32_t s = 0; s < 7; ++s)
    for (uint32_t t = 0; t < 7; ++t)
      updates.push_back({in.Intern("n" + std::to_string(s)), r,
                         in.Intern("n" + std::to_string(t)), UpdateOp::kAdd});
  std::shuffle(updates.begin(), updates.end(), rng.engine());
  return updates;
}

/// Same invariant under adversarial repeated-label chains (every update
/// matches several depths of the same trie at once).
TEST(TricViewInvariant, RepeatedLabelTrieStaysExact) {
  StringInterner in;
  TricEngine engine(false);
  AddRepeatedLabelChains(engine, in);

  graphdb::GraphStore store;
  for (const auto& u : CompleteRGraph(in)) {
    engine.ApplyUpdate(u);
    store.AddEdge(u.src, u.label, u.dst);
  }

  graphdb::MatchExecutor exec(&store);
  engine.forest().ForEachNode([&](const TrieNode& node) {
    std::vector<GenericEdgePattern> sig;
    for (const TrieNode* n = &node; n != nullptr; n = n->parent)
      sig.insert(sig.begin(), n->pattern);
    QueryPattern chain = ChainOfSignature(sig);
    uint64_t expected = exec.CountMatches(chain, graphdb::PlanQuery(chain));
    ASSERT_EQ(node.view->NumRows(), expected) << "depth " << node.depth;
  });
}

/// Repeated-label chains under deletions: one deleted edge sits at several
/// depths of one row, so the cascade must retract each row exactly once and
/// miss none.
TEST(TricViewInvariant, RepeatedLabelTrieStaysExactAfterDeletions) {
  for (bool cached : {false, true}) {
    StringInterner in;
    TricEngine engine(cached);
    AddRepeatedLabelChains(engine, in);

    graphdb::GraphStore store;
    DeleteThirdAndReAdd(engine, store, ApplyInserts(engine, store, CompleteRGraph(in)),
                        /*seed=*/23);
    EXPECT_EQ(ExpectViewsMatchGraph(engine, store, cached ? "TRIC+" : "TRIC"), 3u);
  }
}

/// Repeated-label chains under batched deletions: a window may retire a row
/// at several depths and re-derive through rows it retired earlier; every
/// window boundary must see the exact views.
TEST(TricViewInvariant, RepeatedLabelTrieStaysExactAfterBatchedDeletions) {
  for (size_t window : {7, 32}) {
    for (bool cached : {false, true}) {
      StringInterner in;
      TricEngine engine(cached);
      AddRepeatedLabelChains(engine, in);

      const std::vector<EdgeUpdate> inserts = CompleteRGraph(in);
      std::vector<EdgeUpdate> stream = inserts;
      const std::vector<EdgeUpdate> deletions = DeleteThirdAndReAddStream(inserts, 23);
      stream.insert(stream.end(), deletions.begin(), deletions.end());

      graphdb::GraphStore store;
      EXPECT_EQ(ApplyBatchedAndCheck(engine, store, stream, window,
                                     cached ? "TRIC+" : "TRIC"),
                3u);
      ASSERT_FALSE(HasFatalFailure());
    }
  }
}

}  // namespace
}  // namespace gstream
