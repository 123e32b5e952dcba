#include "tric/tric_engine.h"

#include <algorithm>

#include "common/flat_map.h"
#include "common/logging.h"
#include "common/mem_tracker.h"

namespace gstream {
namespace tric {

TricEngine::TricEngine(const Options& options)
    : options_(options),
      cache_(options.cache ? std::make_unique<JoinCache>() : nullptr) {
  // Plain TRIC rebuilds join tables per update; batch windows may amortize
  // them (transiently — see ViewEngineBase::EnableWindowCache).
  if (!options.cache) EnableWindowCache();
}

std::string TricEngine::name() const {
  std::string name = cache_ ? "TRIC+" : "TRIC";
  if (!options_.clustering) name += "(nocluster)";
  if (options_.per_edge_paths) name += "(peredge)";
  return name;
}

void TricEngine::AddQueryImpl(QueryId qid, const QueryPattern& q) {
  MarkReachDirty();

  QueryEntry entry;
  entry.pattern = q;

  // Step 1 (paper §4.1): extract the covering paths (or the per-edge
  // decomposition for the ablation).
  std::vector<CoveringPath> paths;
  if (options_.per_edge_paths) {
    for (uint32_t e = 0; e < q.NumEdges(); ++e) {
      CoveringPath p;
      p.edges = {e};
      p.vertices = {q.edge(e).src, q.edge(e).dst};
      paths.push_back(std::move(p));
    }
  } else {
    paths = ExtractCoveringPaths(q);
  }

  // Step 2: index each genericized path in the trie forest. Base views are
  // reference-counted per signature element; RemoveQueryImpl releases the
  // same references by re-walking the trie chains.
  for (uint32_t pi = 0; pi < paths.size(); ++pi) {
    std::vector<GenericEdgePattern> sig = GenericSignature(q, paths[pi]);
    for (const auto& p : sig) RefBaseView(p);
    TrieNode* terminal = forest_.InsertPath(
        sig, [this](TrieNode* n) { InitNodeView(n); }, options_.clustering);
    terminal->paths.push_back(PathRef{qid, pi});

    PathInfo info;
    info.terminal = terminal;
    info.pos_to_vertex = paths[pi].vertices;
    info.spec = PathBindingSpec::For(info.pos_to_vertex);
    if (info.spec.has_repeats())
      info.filtered =
          std::make_unique<Relation>(static_cast<uint32_t>(info.spec.schema.size()));
    entry.paths.push_back(std::move(info));
  }
  queries_.emplace(qid, std::move(entry));
}

void TricEngine::RemoveQueryImpl(QueryId qid) {
  MarkReachDirty();
  QueryEntry entry = std::move(queries_.at(qid));
  queries_.erase(qid);

  for (uint32_t pi = 0; pi < entry.paths.size(); ++pi) {
    PathInfo& info = entry.paths[pi];

    // The path's signature, reconstructed from its trie chain (identical to
    // the GenericSignature AddQueryImpl referenced, reversed): one base-view
    // release per element keeps the refcounts symmetric.
    std::vector<GenericEdgePattern> sig;
    for (const TrieNode* n = info.terminal; n != nullptr; n = n->parent)
      sig.push_back(n->pattern);

    // Unpin the covering path; suffix nodes nothing else pins are destroyed
    // together with their prefix views (paper Fig. 5 in reverse: the
    // deepest exclusively-owned node first, stopping at the shared prefix).
    forest_.RemovePathRef(info.terminal, qid, pi, [this](TrieNode* dead) {
      if (cache_ != nullptr) cache_->Evict(dead->view.get());
    });

    // Cyclic paths keep a per-query filtered projection; its indexes die
    // with the query too.
    if (cache_ != nullptr && info.filtered != nullptr)
      cache_->Evict(info.filtered.get());

    for (const auto& p : sig) UnrefBaseView(p);
  }

  // One compaction per removal (not per path/eviction): the routing indexes
  // and cache release their tombstoned capacity, making the GC visible to
  // MemoryBytes.
  forest_.CompactIndexes();
  if (cache_ != nullptr) cache_->Compact();
  CompactSharedState();
}

void TricEngine::OnRelationEvicted(const Relation* rel) {
  if (cache_ != nullptr) cache_->Evict(rel);
}

void TricEngine::OnRowErase(const Relation* rel, size_t row) {
  if (cache_ != nullptr) cache_->PatchErase(rel, row);
}

void TricEngine::InitNodeView(TrieNode* node) {
  node->view = std::make_unique<Relation>(node->depth + 2);
  Relation* base = GetOrCreateBaseView(node->pattern);
  if (base->Empty()) return;
  // Backfill from already-materialized shared state (queries registered
  // mid-stream see the data their shared prefixes retained).
  if (node->parent == nullptr) {
    node->view->AppendAll(*base);
  } else if (!node->parent->view->Empty()) {
    ExtendRight(AllRows(*node->parent->view), *base,
                cache_ ? cache_->Get(base, 0) : nullptr, *node->view);
  }
}

void TricEngine::EnsureEpoch(TrieNode* node, const DeltaScratch& ds) {
  if (node->epoch != ds.epoch) {
    node->epoch = ds.epoch;
    node->delta_begin = node->view->NumRows();
  }
}

void TricEngine::NoteWindowGrowth(TrieNode* node, size_t rows_before,
                                  const DeltaScratch& ds) {
  // Delta windows track per-position boundaries of the grown views so
  // FinalizeWindow can tag rows with the window position that created them.
  // Only terminal views are ever read by the final joins, and only actual
  // growth needs a checkpoint — empty touches stay off the books.
  if (ds.wctx != nullptr && !node->paths.empty())
    ds.wctx->prov.Checkpoint(node->view.get(), ds.wctx->position, rows_before);
}

void TricEngine::MarkAffected(TrieNode* node, DeltaScratch& ds) {
  if (node->paths.empty()) return;
  if (node->affected_epoch == ds.epoch) return;
  node->affected_epoch = ds.epoch;
  ds.affected_terminals.push_back(node);
}

void TricEngine::AfterRowsErased(TrieNode* node) {
  // A cyclic path's filtered projection mirrors its terminal view by row
  // index, and the erase moved rows: rebuild it lazily from scratch.
  for (const PathRef& ref : node->paths) {
    PathInfo& info = queries_.at(ref.qid).paths[ref.path_idx];
    if (info.filtered != nullptr && info.filtered_upto > 0) {
      info.filtered->Clear();
      info.filtered_upto = 0;
    }
  }
}

void TricEngine::ProcessMatchingNode(TrieNode* node, const EdgeUpdate& u,
                                     DeltaScratch& ds) {
  EnsureEpoch(node, ds);
  Relation* view = node->view.get();
  const size_t before = view->NumRows();

  if (node->parent == nullptr) {
    const VertexId row[2] = {u.src, u.dst};
    view->Append(row);
  } else {
    Relation* pview = node->parent->view.get();
    // Join the parent's (current) prefix view against the single update
    // tuple — never a full view-by-view join (paper §4.2 Step 2). TRIC scans
    // the parent view; TRIC+ probes a maintained index on its tail column
    // (as does plain TRIC within a batch window, from the second touch on).
    // Parent rows an earlier deletion of the window retired are dead.
    ExtendRightSingle(AllRows(*pview), u.src, u.dst,
                      JoinIndexFor(pview, pview->arity() - 1), *view,
                      ds.wctx != nullptr ? ds.wctx->retired.RowsOf(pview) : nullptr);
  }

  const size_t after = view->NumRows();
  if (after == before) return;
  NoteWindowGrowth(node, before, ds);
  MarkAffected(node, ds);
  Cascade(node, before, after, ds);
}

void TricEngine::Cascade(TrieNode* node, size_t lo, size_t hi, DeltaScratch& ds) {
  for (const auto& child_ptr : node->children) {
    if (BudgetExceeded()) return;
    TrieNode* child = child_ptr.get();
    Relation* base = FindBaseView(child->pattern);
    GS_DCHECK(base != nullptr);
    if (base->Empty()) continue;  // prune: sub-trie cannot produce results
    EnsureEpoch(child, ds);
    const size_t before = child->view->NumRows();
    ExtendRight(RowRange{node->view.get(), lo, hi}, *base, JoinIndexFor(base, 0),
                *child->view);
    const size_t after = child->view->NumRows();
    if (after == before) continue;  // prune: empty delta stops this branch
    NoteWindowGrowth(child, before, ds);
    MarkAffected(child, ds);
    Cascade(child, before, after, ds);
  }
}

RowRange TricEngine::FullPathRange(PathInfo& info) {
  Relation* view = info.terminal->view.get();
  if (!info.spec.has_repeats()) return AllRows(*view);
  // Cyclic path: maintain the filtered projection incrementally.
  std::vector<VertexId> row(info.spec.schema.size());
  for (size_t i = info.filtered_upto; i < view->NumRows(); ++i) {
    const VertexId* r = view->Row(i);
    bool ok = true;
    for (const auto& [pa, pb] : info.spec.eq_checks) {
      if (r[pa] != r[pb]) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    for (size_t c = 0; c < info.spec.src_pos.size(); ++c) row[c] = r[info.spec.src_pos[c]];
    info.filtered->Append(row.data());
  }
  info.filtered_upto = view->NumRows();
  return AllRows(*info.filtered);
}

const std::vector<uint32_t>& TricEngine::PathSchema(const PathInfo& info) const {
  // Acyclic paths: positions are exactly the distinct vertices, so the view
  // doubles as the binding relation; cyclic paths use the filtered copy.
  return info.spec.has_repeats() ? info.spec.schema : info.pos_to_vertex;
}

UpdateResult TricEngine::ApplyUpdate(const EdgeUpdate& u) {
  UpdateResult result;
  if (u.op == UpdateOp::kDelete) {
    result.changed = HandleDelete(u);
    return result;
  }
  if (IsDuplicateUpdate(u)) return result;
  return ProcessInsert(u);
}

bool TricEngine::RouteUpdate(const EdgeUpdate& u, DeltaScratch& ds,
                             UpdateResult& result) {
  // Routing prefilter (DESIGN.md §12): no trie node's pattern carries this
  // label. Base-view patterns are a subset of the node patterns (every
  // signature element becomes a node), so there is nothing to maintain at
  // all — the whole update is an O(words) reject.
  if (route_enabled() && !forest_.MayMatch(u)) {
    NotePrefilterReject();
    return true;
  }

  // Record the update in every shared edge-level view it satisfies, then
  // route it to the matching trie nodes via the node-granular edgeInd.
  AppendToBaseViews(u);

  std::vector<TrieNode*> matching;
  MatchingNodes(u, matching);
  for (TrieNode* node : matching) {
    if (BudgetExceeded()) {
      result.timed_out = true;
      return false;
    }
    ProcessMatchingNode(node, u, ds);
  }
  return true;
}

void TricEngine::MatchingNodes(const EdgeUpdate& u, std::vector<TrieNode*>& out) const {
  if (route_enabled()) {
    // Class-mask-gated probing: only the endpoint generalizations some
    // registered pattern actually uses are looked up (deduplicated).
    forest_.RouteNodes(u, out);
  } else {
    for (const auto& g : Generalizations(u)) {
      const std::vector<TrieNode*>* nodes = forest_.NodesFor(g);
      if (nodes != nullptr) out.insert(out.end(), nodes->begin(), nodes->end());
    }
  }
  std::sort(out.begin(), out.end(), [](const TrieNode* a, const TrieNode* b) {
    return a->depth != b->depth ? a->depth < b->depth : a->seq < b->seq;
  });
}

UpdateResult TricEngine::ProcessInsert(const EdgeUpdate& u) {
  UpdateResult result;
  result.changed = true;

  DeltaScratch ds;
  ds.epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;

  if (!RouteUpdate(u, ds, result)) return result;

  FinalizeQueries(result, ds);
  if (budget_ != nullptr && budget_->ExceededNow()) result.timed_out = true;
  return result;
}

std::unique_ptr<ViewEngineBase::WindowContext> TricEngine::NewWindowContext() {
  auto ctx = std::make_unique<TricWindowContext>();
  // A fresh epoch value window-scopes TrieNode::window_affected_epoch marks
  // (per-update epochs drawn later in the window are strictly larger).
  ctx->window_epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  return ctx;
}

void TricEngine::ProcessInsertDelta(const EdgeUpdate& u, WindowContext& ctx,
                                    UpdateResult& result) {
  TricWindowContext& wctx = static_cast<TricWindowContext&>(ctx);
  result.changed = true;

  DeltaScratch ds;
  ds.epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  ds.wctx = &wctx;

  RouteUpdate(u, ds, result);

  // Fold this update's affected terminals into the window's union; the
  // final joins run once per (query, window) in FinalizeWindow.
  for (TrieNode* node : ds.affected_terminals) {
    if (node->window_affected_epoch == wctx.window_epoch) continue;
    node->window_affected_epoch = wctx.window_epoch;
    wctx.affected_terminals.push_back(node);
  }
}

void TricEngine::FinalizeQueries(UpdateResult& result, DeltaScratch& ds) {
  if (ds.affected_terminals.empty()) return;

  // Group the affected covering paths per query, ascending qid.
  std::vector<std::pair<QueryId, uint32_t>> affected_paths;  // (qid, path idx)
  for (TrieNode* node : ds.affected_terminals)
    for (const PathRef& ref : node->paths) affected_paths.emplace_back(ref.qid, ref.path_idx);
  std::sort(affected_paths.begin(), affected_paths.end());
  NoteRoutedCandidates(affected_paths.size());

  size_t i = 0;
  while (i < affected_paths.size()) {
    const QueryId qid = affected_paths[i].first;
    size_t j = i;
    while (j < affected_paths.size() && affected_paths[j].first == qid) ++j;

    if (BudgetExceeded()) {
      result.timed_out = true;
      return;
    }

    QueryEntry& entry = queries_.at(qid);

    // All covering paths must have non-empty views for any embedding to
    // exist (paper Fig. 8 line 12 precondition).
    bool feasible = true;
    for (const PathInfo& info : entry.paths) {
      if (info.terminal->view->Empty()) {
        feasible = false;
        break;
      }
    }
    if (!feasible) {
      i = j;
      continue;
    }
    NoteFinalJoinPass();

    // Transient per-update assignment set over all query vertices (dedups
    // across multiple affected paths).
    const uint32_t num_vertices = static_cast<uint32_t>(entry.pattern.NumVertices());
    Relation assignments(num_vertices);

    for (size_t k = i; k < j; ++k) {
      const uint32_t path_idx = affected_paths[k].second;
      PathInfo& seed = entry.paths[path_idx];
      TrieNode* node = seed.terminal;
      if (node->epoch != ds.epoch) continue;  // no delta after all

      OwnedBindings acc = PathRowsToBindings(
          RowRange{node->view.get(), node->delta_begin, node->view->NumRows()},
          seed.spec);
      if (acc.Empty()) continue;

      // Join the other covering paths' full views, preferring join partners
      // that share vertices with the accumulated schema.
      std::vector<uint32_t> remaining;
      for (uint32_t p = 0; p < entry.paths.size(); ++p)
        if (p != path_idx) remaining.push_back(p);

      bool dead = false;
      while (!remaining.empty() && !dead) {
        size_t pick = 0;
        for (size_t r = 0; r < remaining.size(); ++r) {
          if (FirstSharedColumn(acc.schema, PathSchema(entry.paths[remaining[r]])) >= 0) {
            pick = r;
            break;
          }
        }
        PathInfo& other = entry.paths[remaining[pick]];
        const std::vector<uint32_t>& sb = PathSchema(other);
        RowRange b = FullPathRange(other);
        const HashIndex* idx = nullptr;
        int col = FirstSharedColumn(acc.schema, sb);
        if (col >= 0) idx = JoinIndexFor(b.rel, static_cast<uint32_t>(col));
        acc = JoinBindingRanges(acc.schema, acc.All(), sb, b, idx);
        dead = acc.Empty();
        remaining.erase(remaining.begin() + pick);
        if (BudgetExceeded()) {
          result.timed_out = true;
          return;
        }
      }
      if (dead) continue;

      // Project onto canonical vertex order and dedup into the per-update
      // assignment set.
      std::vector<uint32_t> perm(num_vertices);
      for (uint32_t c = 0; c < acc.schema.size(); ++c) perm[acc.schema[c]] = c;
      std::vector<VertexId> row(num_vertices);
      for (size_t r = 0; r < acc.rows->NumRows(); ++r) {
        const VertexId* src = acc.rows->Row(r);
        for (uint32_t v = 0; v < num_vertices; ++v) row[v] = src[perm[v]];
        // §4.3 extra phase: property constraints on the full assignment.
        if (!SatisfiesConstraints(entry.pattern, row.data())) continue;
        assignments.Append(row.data());
      }
    }

    result.AddQueryCount(qid, assignments.NumRows());
    NotePeakTransient(assignments.MemoryBytes());
    i = j;
  }
}

std::pair<RowRange, RowTags> TricEngine::FullPathRangeTagged(
    PathInfo& info, TricWindowContext& wctx) {
  Relation* view = info.terminal->view.get();
  if (!info.spec.has_repeats())
    return {AllRows(*view), wctx.prov.TagsFor(view)};

  // Cyclic path: catch the filtered projection up, mirroring each view
  // row's window tag onto the filtered relation via checkpoints (view rows
  // arrive in window order, so tags ascend and checkpointing is valid).
  RowTags view_tags = wctx.prov.TagsFor(view);
  std::vector<VertexId> row(info.spec.schema.size());
  for (size_t i = info.filtered_upto; i < view->NumRows(); ++i) {
    const VertexId* r = view->Row(i);
    bool ok = true;
    for (const auto& [pa, pb] : info.spec.eq_checks) {
      if (r[pa] != r[pb]) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    for (size_t c = 0; c < info.spec.src_pos.size(); ++c) row[c] = r[info.spec.src_pos[c]];
    const uint32_t tag = view_tags.TagOf(i);
    if (tag > 0) wctx.prov.Checkpoint(info.filtered.get(), tag);
    info.filtered->Append(row.data());
  }
  info.filtered_upto = view->NumRows();
  return {AllRows(*info.filtered), wctx.prov.TagsFor(info.filtered.get())};
}

bool TricEngine::EncodeFinalizeSignature(QueryId qid, std::vector<uint64_t>& out) {
  const QueryEntry& entry = queries_.at(qid);
  for (const PathInfo& info : entry.paths) {
    out.push_back(~1ull);  // path delimiter: (a)(b,c) and (a,b)(c) differ
    out.push_back(info.terminal->seq);
    for (uint32_t v : info.pos_to_vertex) out.push_back(v);
  }
  AppendFilterSignature(entry.pattern, out);
  return true;
}

void TricEngine::ListQueryIds(std::vector<QueryId>& out) const {
  out.reserve(out.size() + queries_.size());
  for (const auto& [qid, entry] : queries_) out.push_back(qid);
}

bool TricEngine::EvaluateWindowTagged(QueryEntry& entry,
                                      const std::vector<uint32_t>& path_idxs,
                                      TricWindowContext& wctx,
                                      uint32_t probe_weight, bool& pass_ran,
                                      std::vector<uint32_t>& tags) {
  pass_ran = false;
  tags.clear();

  // End-of-window feasibility: node views only grow inside a window (a
  // deletion retires rows, EraseRetired erases them after the finalize), so
  // a path empty here was empty at every member position.
  for (const PathInfo& info : entry.paths)
    if (info.terminal->view->Empty()) return true;
  NoteFinalJoinPass();
  pass_ran = true;

  // Mixed windows (DESIGN.md §16): the paths whose terminal retired rows in
  // this window. An assignment counts at its tag only if none of its rows
  // on these paths was retired at or before that tag.
  struct RetiredPath {
    const PathInfo* info;
    const RetiredRowMap* rows;
  };
  std::vector<RetiredPath> retired_paths;
  if (!wctx.retired.empty()) {
    for (const PathInfo& info : entry.paths)
      if (const RetiredRowMap* rows = wctx.retired.RowsOf(info.terminal->view.get()))
        retired_paths.push_back({&info, rows});
  }

  // Per-(query, window) assignment set: dedup on the vertex columns, each
  // row tagged with the window position sequential execution would have
  // reported it at (= the max tag over its contributing view rows; every
  // derivation of a row carries the same tag). `probe_weight` > 1 marks a
  // pass standing in for that many per-query chains (window-cache build
  // decisions stay identical to the per-query pipeline's).
  const uint32_t num_vertices = static_cast<uint32_t>(entry.pattern.NumVertices());
  Relation assignments(num_vertices);
  assignments.EnableProvenance();

  for (uint32_t path_idx : path_idxs) {
    PathInfo& seed = entry.paths[path_idx];
    Relation* seed_view = seed.terminal->view.get();
    const size_t delta_begin = wctx.prov.WindowDeltaBegin(seed_view);
    if (delta_begin >= seed_view->NumRows()) continue;  // no delta after all

    OwnedBindings acc = PathRowsToBindingsTagged(
        RowRange{seed_view, delta_begin, seed_view->NumRows()}, seed.spec,
        wctx.prov.TagsFor(seed_view));
    if (acc.Empty()) continue;

    // One tagged join pass against the other covering paths' end-of-window
    // views serves every update in the window; the tags reconstruct the
    // per-update attribution below.
    std::vector<uint32_t> remaining;
    for (uint32_t p = 0; p < entry.paths.size(); ++p)
      if (p != path_idx) remaining.push_back(p);

    bool dead = false;
    while (!remaining.empty() && !dead) {
      size_t pick = 0;
      for (size_t r = 0; r < remaining.size(); ++r) {
        if (FirstSharedColumn(acc.schema, PathSchema(entry.paths[remaining[r]])) >= 0) {
          pick = r;
          break;
        }
      }
      PathInfo& other = entry.paths[remaining[pick]];
      const std::vector<uint32_t>& sb = PathSchema(other);
      auto [b, b_tags] = FullPathRangeTagged(other, wctx);
      const HashIndex* idx = nullptr;
      int col = FirstSharedColumn(acc.schema, sb);
      if (col >= 0)
        idx = JoinIndexFor(b.rel, static_cast<uint32_t>(col), probe_weight);
      acc = JoinBindingRangesTagged(acc.schema, acc.All(), sb, b, b_tags, idx);
      dead = acc.Empty();
      remaining.erase(remaining.begin() + pick);
      if (BudgetExceeded()) return false;
    }
    if (dead) continue;

    std::vector<uint32_t> perm(num_vertices);
    for (uint32_t c = 0; c < acc.schema.size(); ++c) perm[acc.schema[c]] = c;
    std::vector<VertexId> row(num_vertices);
    for (size_t r = 0; r < acc.rows->NumRows(); ++r) {
      const VertexId* src = acc.rows->Row(r);
      for (uint32_t v = 0; v < num_vertices; ++v) row[v] = src[perm[v]];
      // §4.3 extra phase: property constraints on the full assignment.
      if (!SatisfiesConstraints(entry.pattern, row.data())) continue;
      assignments.AppendTagged(row.data(), acc.rows->ProvOf(r));
    }
  }

  // Was some row of assignment `a` retired at or before `tag`? Each path's
  // row is fixed by the assignment: one Find plus one log lookup per path.
  std::vector<VertexId> path_row;
  const auto retired_by = [&](const VertexId* a, uint32_t tag) {
    for (const RetiredPath& rp : retired_paths) {
      const std::vector<uint32_t>& pos = rp.info->pos_to_vertex;
      path_row.resize(pos.size());
      for (size_t c = 0; c < pos.size(); ++c) path_row[c] = a[pos[c]];
      const size_t i = rp.info->terminal->view->Find(path_row.data());
      GS_DCHECK(i != Relation::kNoRow);  // joined rows are physical rows
      const uint32_t* at = rp.rows->Find(static_cast<uint32_t>(i));
      if (at != nullptr && *at <= tag) return true;
    }
    return false;
  };

  // The deduplicated assignments' window positions (ScatterTagCounts input).
  tags.reserve(assignments.NumRows());
  for (size_t r = 0; r < assignments.NumRows(); ++r) {
    const uint32_t tag = assignments.ProvOf(r);
    GS_DCHECK(tag > 0);  // a new match always uses a window row
    if (!retired_paths.empty() && retired_by(assignments.Row(r), tag)) continue;
    tags.push_back(tag);
  }
  NotePeakTransient(assignments.MemoryBytes());
  return true;
}

void TricEngine::FinalizeWindow(WindowContext& ctx, UpdateResult* window_results) {
  TricWindowContext& wctx = static_cast<TricWindowContext&>(ctx);
  if (route_enabled()) {
    FinalizeWindowRouted(wctx, window_results);
    return;
  }
  if (wctx.affected_terminals.empty()) return;

  // Group the window's affected covering paths per query, ascending qid, so
  // AddQueryCount calls keep every per-update result vector sorted.
  std::vector<std::pair<QueryId, uint32_t>> affected_paths;  // (qid, path idx)
  for (TrieNode* node : wctx.affected_terminals)
    for (const PathRef& ref : node->paths) affected_paths.emplace_back(ref.qid, ref.path_idx);
  std::sort(affected_paths.begin(), affected_paths.end());
  NoteRoutedCandidates(affected_paths.size());

  size_t i = 0;
  while (i < affected_paths.size()) {
    const QueryId qid = affected_paths[i].first;
    size_t j = i;
    while (j < affected_paths.size() && affected_paths[j].first == qid) ++j;

    if (BudgetExceededNow()) return;  // timeout: partial, flagged by the caller

    // Shared finalization (§9): signature-equal queries are affected through
    // the same terminals, so the first member of a group evaluates and every
    // later member replays the memoized tags — the window key (affected path
    // set) double-checks that assumption at runtime.
    SharedFinalizeMemo* memo = SharedMemoFor(qid, wctx);
    std::vector<uint64_t> window_key;
    if (memo != nullptr) {
      window_key.reserve(j - i);
      for (size_t k = i; k < j; ++k) window_key.push_back(affected_paths[k].second);
      if (memo->evaluated && memo->runtime_key == window_key) {
        ReplaySharedTags(*memo, qid, window_results);
        i = j;
        continue;
      }
    }

    std::vector<uint32_t> path_idxs;
    path_idxs.reserve(j - i);
    for (size_t k = i; k < j; ++k) path_idxs.push_back(affected_paths[k].second);
    i = j;

    QueryEntry& entry = queries_.at(qid);
    bool pass_ran = false;
    std::vector<uint32_t> tags;
    if (!EvaluateWindowTagged(entry, path_idxs, wctx, SharedGroupSize(qid),
                              pass_ran, tags))
      return;
    if (memo != nullptr) memo->Store(pass_ran, std::move(window_key), &tags);
    ScatterTagCounts(tags, qid, window_results);
  }
}

void TricEngine::OnRouteGroupsRebuilt() {
  // One bump invalidates every node's annotations at once; the rebuild below
  // re-stamps exactly the terminals the live groups route through.
  ++route_stamp_;
  if (!route_enabled()) return;
  for (const auto& group : finalize_groups()) {
    // Signature-equal members reference identical terminals at identical
    // path indices (the signature pins terminal->seq per path in order), so
    // the representative's annotations route the whole group.
    const QueryEntry& rep = queries_.at(group->members[0]);
    for (uint32_t pi = 0; pi < rep.paths.size(); ++pi) {
      TrieNode* terminal = rep.paths[pi].terminal;
      if (terminal->route_stamp != route_stamp_) {
        terminal->route_groups.clear();
        terminal->route_stamp = route_stamp_;
      }
      terminal->route_groups.emplace_back(group->id, pi);
    }
  }
}

void TricEngine::FinalizeWindowRouted(TricWindowContext& wctx,
                                      UpdateResult* window_results) {
  if (wctx.affected_terminals.empty()) return;
  const auto& groups = finalize_groups();

  // Expand the affected terminals through their group annotations into
  // (group id, representative path idx) pairs — the routed counterpart of
  // the legacy (qid, path idx) expansion, with fan-out per signature group
  // instead of per query. A group with an empty covering-path terminal
  // cannot match (EvaluateWindowTagged's end-of-window test), so it is
  // dropped here, before the sort and the per-group work; the test reads the
  // representative's terminals once per group and window. Sorted so each
  // group's paths form one run.
  FlatMap<uint32_t, uint8_t, VertexIdHash> feasible;  // 0 unknown, 1 no, 2 yes
  const auto can_match = [&](uint32_t gid) {
    uint8_t& state = feasible.GetOrCreate(gid);
    if (state == 0) {
      state = 2;
      for (const PathInfo& info : queries_.at(groups[gid]->members[0]).paths)
        if (info.terminal->view->Empty()) state = 1;
    }
    return state == 2;
  };
  std::vector<std::pair<uint32_t, uint32_t>> affected;  // (group id, path idx)
  for (TrieNode* node : wctx.affected_terminals) {
    // Every path-holding terminal is some representative's terminal, and the
    // grouping was rebuilt before this window fanned out.
    GS_DCHECK(node->paths.empty() || node->route_stamp == route_stamp_);
    for (const auto& [gid, pi] : node->route_groups)
      if (can_match(gid)) affected.emplace_back(gid, pi);
  }
  std::sort(affected.begin(), affected.end());
  NoteRoutedCandidates(affected.size());

  size_t i = 0;
  while (i < affected.size()) {
    const uint32_t gid = affected[i].first;
    size_t j = i;
    while (j < affected.size() && affected[j].first == gid) ++j;

    if (BudgetExceededNow()) return;  // timeout: partial, flagged by the caller

    std::vector<uint32_t> path_idxs;
    path_idxs.reserve(j - i);
    for (size_t k = i; k < j; ++k) path_idxs.push_back(affected[k].second);
    i = j;

    const FinalizeGroup& group = *groups[gid];
    if (GroupSharingApplies(group)) {
      // Evaluate the group's representative once; the tagged assignment set
      // serves every member — the same invariant as the legacy memo path,
      // without materializing per-member work items.
      QueryEntry& rep = queries_.at(group.members[0]);
      bool pass_ran = false;
      std::vector<uint32_t> tags;
      if (!EvaluateWindowTagged(rep, path_idxs, wctx,
                                static_cast<uint32_t>(group.members.size()),
                                pass_ran, tags))
        return;
      if (pass_ran) NoteSharedGroupPass();
      if (tags.empty()) continue;
      for (QueryId qid : group.members) {
        std::vector<uint32_t> member_tags = tags;
        ScatterTagCounts(member_tags, qid, window_results);
      }
    } else {
      // Sharing off (or the signature opted out): per-member evaluations,
      // still routed group-at-a-time. Signature-equal members share the
      // representative's path indices.
      for (QueryId qid : group.members) {
        if (BudgetExceededNow()) return;
        bool pass_ran = false;
        std::vector<uint32_t> tags;
        if (!EvaluateWindowTagged(queries_.at(qid), path_idxs, wctx,
                                  /*probe_weight=*/1, pass_ran, tags))
          return;
        ScatterTagCounts(tags, qid, window_results);
      }
    }
  }
}

Relation& TricEngine::Retraction::RowsOf(TrieNode* node) {
  Relation*& rows = by_node[node];
  if (rows == nullptr) {
    doomed.emplace_back(node, std::make_unique<Relation>(node->view->arity()));
    rows = doomed.back().second.get();
  }
  return *rows;
}

void TricEngine::CollectRetraction(const EdgeUpdate& u, const RetiredRowLog* retired,
                                   Retraction& retraction) {
  // Collect every doomed row against the pre-delete state: repeated-label
  // chains match one edge at several depths, and each depth's rows are
  // found through its parent's rows, which must all still be present.
  std::vector<TrieNode*> matching;
  MatchingNodes(u, matching);
  for (TrieNode* node : matching) RetractMatchingNode(node, u, retired, retraction);
}

bool TricEngine::HandleDelete(const EdgeUpdate& u) {
  if (!seen_edges_.Contains(u)) return false;
  Retraction retraction;
  CollectRetraction(u, nullptr, retraction);
  RemoveFromBaseViews(u);
  for (const auto& [node, rows] : retraction.doomed) {
    if (rows->Empty()) continue;
    for (size_t r = 0; r < rows->NumRows(); ++r)
      EraseViewRow(node->view.get(), rows->Row(r));
    AfterRowsErased(node);
  }
  return true;
}

void TricEngine::ProcessDeleteDelta(const EdgeUpdate& u, WindowContext& ctx,
                                    UpdateResult& result) {
  TricWindowContext& wctx = static_cast<TricWindowContext&>(ctx);
  result.changed = true;
  Retraction retraction;
  CollectRetraction(u, &wctx.retired, retraction);
  // Final joins never read base views, so those erase at once: later
  // inserts of the window cascade through the current base views.
  EraseFromBaseViews(u);
  // Node-view rows only retire; their ids stay valid for the window's
  // provenance checkpoints until EraseRetired.
  for (const auto& [node, rows] : retraction.doomed) {
    Relation* view = node->view.get();
    for (size_t r = 0; r < rows->NumRows(); ++r) {
      const size_t i = view->Find(rows->Row(r));
      GS_DCHECK(i != Relation::kNoRow);  // a live row is in its view
      if (i == Relation::kNoRow) continue;
      if (wctx.retired.Retire(view, i, wctx.position)) wctx.retired_nodes.push_back(node);
    }
  }
}

void TricEngine::EraseRetired(WindowContext& ctx) {
  TricWindowContext& wctx = static_cast<TricWindowContext&>(ctx);
  for (TrieNode* node : wctx.retired_nodes) {
    Relation* view = node->view.get();
    for (uint32_t i : wctx.retired.RowsDescending(view)) EraseViewRowAt(view, i);
    AfterRowsErased(node);
  }
}

void TricEngine::RetractMatchingNode(TrieNode* node, const EdgeUpdate& u,
                                     const RetiredRowLog* retired,
                                     Retraction& retraction) {
  // The insert path's join, aimed at the doomed rows: the rows holding the
  // edge at this node's depth are the parent rows ending in `src`, extended
  // by `dst` (TRIC+ probes the parent's maintained tail-column index).
  // Parent rows an earlier deletion of the window retired are dead already.
  Relation& rows = retraction.RowsOf(node);
  const size_t before = rows.NumRows();
  if (node->parent == nullptr) {
    const VertexId row[2] = {u.src, u.dst};
    rows.Append(row);
  } else {
    Relation* pview = node->parent->view.get();
    ExtendRightSingle(AllRows(*pview), u.src, u.dst,
                      JoinIndexFor(pview, pview->arity() - 1), rows,
                      retired != nullptr ? retired->RowsOf(pview) : nullptr);
  }
  RetractCascade(node, before, retraction);
}

void TricEngine::RetractCascade(TrieNode* node, size_t lo, Retraction& retraction) {
  // Rows [lo, end) are newly doomed at `node` (a row doomed twice cascades
  // once); their descendants are their extensions through each child's base
  // view — the insert cascade's join, probing the base's column-0 index.
  const Relation& rows = retraction.RowsOf(node);
  const RowRange doomed{&rows, lo, rows.NumRows()};
  if (doomed.empty()) return;
  for (const auto& child_ptr : node->children) {
    TrieNode* child = child_ptr.get();
    Relation* base = FindBaseView(child->pattern);
    GS_DCHECK(base != nullptr);
    if (base->Empty()) continue;
    Relation& child_rows = retraction.RowsOf(child);
    const size_t before = child_rows.NumRows();
    ExtendRight(doomed, *base, JoinIndexFor(base, 0), child_rows);
    RetractCascade(child, before, retraction);
  }
}

void TricEngine::BuildPatternReach() {
  // Pass 1: per-node subtree aggregates. ForEachNode is pre-order (parents
  // before children), so a reverse sweep folds children into parents
  // bottom-up.
  std::unordered_map<const TrieNode*, Footprint> node_reach;
  std::vector<const TrieNode*> order;
  order.reserve(forest_.NumNodes());
  forest_.ForEachNode([&](const TrieNode& n) { order.push_back(&n); });
  node_reach.reserve(order.size());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TrieNode* n = *it;
    Footprint& fp = node_reach[n];
    fp.push_back(NodeElem(n->seq));
    fp.push_back(PatternElem(PatternId(n->pattern)));
    for (const PathRef& ref : n->paths) {
      // Finalizing a query joins the delta against the *other* covering
      // paths' terminal views, so the query's whole terminal closure is in
      // reach (including the shared maintained indexes over those views).
      fp.push_back(QueryElem(ref.qid));
      for (const PathInfo& info : queries_.at(ref.qid).paths)
        fp.push_back(NodeElem(info.terminal->seq));
    }
    for (const auto& child : n->children) {
      const Footprint& cfp = node_reach.at(child.get());
      fp.insert(fp.end(), cfp.begin(), cfp.end());
    }
    std::sort(fp.begin(), fp.end());
    fp.erase(std::unique(fp.begin(), fp.end()), fp.end());
  }

  // Pass 2: fold into per-pattern reaches (one per registered base view) so
  // CollectFootprint is a handful of map lookups per update.
  for (const auto& [pattern, view] : base_views_) {
    Footprint& fp = pattern_reach_[pattern];
    fp.push_back(PatternElem(PatternId(pattern)));  // base-view append
    if (const std::vector<TrieNode*>* nodes = forest_.NodesFor(pattern)) {
      for (const TrieNode* node : *nodes) {
        if (node->parent != nullptr) fp.push_back(NodeElem(node->parent->seq));
        const Footprint& nfp = node_reach.at(node);
        fp.insert(fp.end(), nfp.begin(), nfp.end());
      }
    }
    std::sort(fp.begin(), fp.end());
    fp.erase(std::unique(fp.begin(), fp.end()), fp.end());
  }
}

size_t TricEngine::MemoryBytes() const {
  size_t bytes = SharedMemoryBytes() + forest_.MemoryBytes();
  for (const auto& [qid, entry] : queries_) {
    bytes += sizeof(qid) + entry.pattern.MemoryBytes() + 2 * sizeof(void*);
    for (const auto& info : entry.paths) {
      bytes += sizeof(info) + mem::OfVector(info.pos_to_vertex) +
               mem::OfVector(info.spec.schema) + mem::OfVector(info.spec.src_pos);
      if (info.filtered != nullptr) bytes += info.filtered->MemoryBytes();
    }
  }
  if (cache_ != nullptr) bytes += cache_->MemoryBytes();
  return bytes;
}

}  // namespace tric
}  // namespace gstream
