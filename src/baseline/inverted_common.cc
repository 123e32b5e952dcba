#include "baseline/inverted_common.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/mem_tracker.h"

namespace gstream {
namespace baseline {

InvertedIndexEngineBase::InvertedIndexEngineBase(bool enable_cache)
    : cache_(enable_cache ? std::make_unique<JoinCache>() : nullptr) {
  if (!enable_cache) EnableWindowCache();
}

void InvertedIndexEngineBase::AddQueryImpl(QueryId qid, const QueryPattern& q) {
  MarkReachDirty();

  QueryEntry entry;
  entry.pattern = q;
  entry.paths = ExtractCoveringPaths(q);
  for (const auto& path : entry.paths) {
    entry.signatures.push_back(GenericSignature(q, path));
    entry.specs.push_back(PathBindingSpec::For(path.vertices));
  }

  // Inverted indexes; one entry per distinct pattern per query. Base views
  // are reference-counted at the same granularity (covering paths traverse
  // exactly the query's genericized edges), so RemoveQueryImpl releases
  // symmetrically from the distinct-pattern set alone.
  std::unordered_set<GenericEdgePattern, GenericEdgePatternHash> distinct;
  for (uint32_t e = 0; e < q.NumEdges(); ++e) {
    GenericEdgePattern p = q.Genericized(e);
    if (!distinct.insert(p).second) continue;
    RefBaseView(p);
    edge_ind_.GetOrCreate(p).push_back(qid);
    source_ind_.GetOrCreate(p.src).push_back(p);
    target_ind_.GetOrCreate(p.dst).push_back(p);
    prefilter_.Add(p);
  }
  queries_.emplace(qid, std::move(entry));
}

void InvertedIndexEngineBase::RemoveQueryImpl(QueryId qid) {
  MarkReachDirty();
  QueryEntry entry = std::move(queries_.at(qid));
  queries_.erase(qid);

  std::unordered_set<GenericEdgePattern, GenericEdgePatternHash> distinct;
  for (uint32_t e = 0; e < entry.pattern.NumEdges(); ++e) {
    GenericEdgePattern p = entry.pattern.Genericized(e);
    if (!distinct.insert(p).second) continue;

    // edgeInd: drop this query's posting (registered exactly once per
    // distinct pattern). The pattern's sourceInd/targetInd entries are
    // per referencing query, so one occurrence goes with it; emptied
    // posting lists are erased outright.
    std::vector<QueryId>* qids = edge_ind_.Find(p);
    GS_CHECK(qids != nullptr);
    qids->erase(std::find(qids->begin(), qids->end(), qid));
    const bool last_query_of_pattern = qids->empty();
    if (last_query_of_pattern) edge_ind_.Erase(p);

    const auto drop_vertex_posting = [&](FlatMap<VertexId, std::vector<GenericEdgePattern>,
                                                 VertexIdHash>& ind,
                                         VertexId term) {
      std::vector<GenericEdgePattern>* ps = ind.Find(term);
      GS_CHECK(ps != nullptr);
      ps->erase(std::find(ps->begin(), ps->end(), p));
      if (ps->empty()) ind.Erase(term);
    };
    drop_vertex_posting(source_ind_, p.src);
    drop_vertex_posting(target_ind_, p.dst);
    prefilter_.Remove(p);

    UnrefBaseView(p);
  }

  // One compaction per removal: release the erased postings' slots and the
  // "+" cache's evicted entries so the GC shows up in MemoryBytes. The group
  // routing postings are rebuilt (and compacted) wholesale with the next
  // EnsureFinalizeGroups, so churn waves pay one deferred rebuild, not one
  // per removal.
  edge_ind_.Compact();
  source_ind_.Compact();
  target_ind_.Compact();
  prefilter_.Compact();
  if (cache_ != nullptr) cache_->Compact();
  CompactSharedState();
}

void InvertedIndexEngineBase::OnRelationEvicted(const Relation* rel) {
  if (cache_ != nullptr) cache_->Evict(rel);
}

void InvertedIndexEngineBase::OnRowErase(const Relation* rel, size_t row) {
  if (cache_ != nullptr) cache_->PatchErase(rel, row);
}

std::vector<QueryId> InvertedIndexEngineBase::AffectedQueries(
    const EdgeUpdate& u) const {
  std::vector<QueryId> qids;
  for (const auto& g : Generalizations(u)) {
    const std::vector<QueryId>* hits = edge_ind_.Find(g);
    if (hits == nullptr) continue;
    qids.insert(qids.end(), hits->begin(), hits->end());
  }
  std::sort(qids.begin(), qids.end());
  qids.erase(std::unique(qids.begin(), qids.end()), qids.end());
  return qids;
}

void InvertedIndexEngineBase::BuildPatternReach() {
  // Per-pattern reach: the pattern's base view plus, for each query the
  // pattern can affect (edgeInd), the query's per-update state and every
  // base view its path (re)materialization scans.
  for (const auto& [pattern, view] : base_views_) {
    Footprint& fp = pattern_reach_[pattern];
    fp.push_back(PatternElem(PatternId(pattern)));
    if (const std::vector<QueryId>* qids = edge_ind_.Find(pattern)) {
      for (QueryId qid : *qids) {
        fp.push_back(QueryElem(qid));
        const QueryEntry& entry = queries_.at(qid);
        for (const auto& sig : entry.signatures)
          for (const auto& p : sig) fp.push_back(PatternElem(PatternId(p)));
      }
    }
    std::sort(fp.begin(), fp.end());
    fp.erase(std::unique(fp.begin(), fp.end()), fp.end());
  }
}

bool InvertedIndexEngineBase::AllViewsNonEmpty(const QueryEntry& entry) const {
  for (uint32_t e = 0; e < entry.pattern.NumEdges(); ++e) {
    const Relation* view = FindBaseView(entry.pattern.Genericized(e));
    if (view == nullptr || view->Empty()) return false;
  }
  return true;
}

std::unique_ptr<Relation> InvertedIndexEngineBase::MaterializeFullPath(
    const QueryEntry& entry, size_t pi, JoinIndexSource* cache, size_t& transient_bytes) {
  const auto& sig = entry.signatures[pi];
  const Relation* first = FindBaseView(sig[0]);
  GS_DCHECK(first != nullptr);

  // Copy-start the chain so single-edge and multi-edge paths are handled
  // uniformly (the copy is the price of owning no per-path state).
  auto current = std::make_unique<Relation>(2);
  current->AppendAll(*first);

  for (size_t i = 1; i < sig.size(); ++i) {
    if (current->Empty()) return nullptr;
    const Relation* base = FindBaseView(sig[i]);
    GS_DCHECK(base != nullptr);
    auto next = std::make_unique<Relation>(current->arity() + 1);
    ExtendRight(AllRows(*current), *base, cache ? cache->Get(base, 0) : nullptr,
                *next);
    transient_bytes += next->MemoryBytes();
    current = std::move(next);
    if (BudgetExceeded()) return nullptr;
  }
  if (current->Empty()) return nullptr;
  return current;
}

std::unique_ptr<Relation> InvertedIndexEngineBase::MaterializePathDelta(
    const QueryEntry& entry, size_t pi, const EdgeUpdate& u, JoinIndexSource* cache,
    size_t& transient_bytes) {
  const auto& sig = entry.signatures[pi];
  const uint32_t arity = static_cast<uint32_t>(sig.size()) + 1;
  auto delta = std::make_unique<Relation>(arity);

  for (size_t pos = 0; pos < sig.size(); ++pos) {
    if (!sig[pos].Matches(u)) continue;
    // Seed with the update tuple at `pos`, then grow the fragment leftwards
    // and rightwards over the edge views.
    auto cur = std::make_unique<Relation>(2);
    const VertexId seed[2] = {u.src, u.dst};
    cur->Append(seed);
    bool dead = false;
    for (size_t j = pos; j-- > 0 && !dead;) {
      const Relation* base = FindBaseView(sig[j]);
      auto next = std::make_unique<Relation>(cur->arity() + 1);
      ExtendLeft(AllRows(*cur), *base, cache ? cache->Get(base, 1) : nullptr, *next);
      transient_bytes += next->MemoryBytes();
      cur = std::move(next);
      dead = cur->Empty();
    }
    for (size_t j = pos + 1; j < sig.size() && !dead; ++j) {
      const Relation* base = FindBaseView(sig[j]);
      auto next = std::make_unique<Relation>(cur->arity() + 1);
      ExtendRight(AllRows(*cur), *base, cache ? cache->Get(base, 0) : nullptr, *next);
      transient_bytes += next->MemoryBytes();
      cur = std::move(next);
      dead = cur->Empty();
    }
    if (dead || BudgetExceeded()) continue;
    delta->AppendAll(*cur);
  }
  return delta;
}

bool InvertedIndexEngineBase::EncodeFinalizeSignature(QueryId qid,
                                                      std::vector<uint64_t>& out) {
  const QueryEntry& entry = queries_.at(qid);
  for (size_t pi = 0; pi < entry.paths.size(); ++pi) {
    out.push_back(~1ull);  // path delimiter: (a)(b,c) and (a,b)(c) differ
    for (const GenericEdgePattern& p : entry.signatures[pi])
      // Read-only lookup: PrepareFinalizeSignatures interned every id.
      out.push_back(PatternElem(PatternIdIfKnown(p)));
    out.push_back(~2ull);  // view ids above, binding spec below
    for (uint32_t v : entry.paths[pi].vertices) out.push_back(v);
  }
  AppendFilterSignature(entry.pattern, out);
  return true;
}

void InvertedIndexEngineBase::PrepareFinalizeSignatures(
    const std::vector<QueryId>& qids) {
  for (QueryId qid : qids)
    for (const auto& sig : queries_.at(qid).signatures)
      for (const GenericEdgePattern& p : sig) PatternId(p);
}

void InvertedIndexEngineBase::ListQueryIds(std::vector<QueryId>& out) const {
  out.reserve(out.size() + queries_.size());
  for (const auto& [qid, entry] : queries_) out.push_back(qid);
}

void InvertedIndexEngineBase::ProcessInsertDelta(const EdgeUpdate& u,
                                                 WindowContext& ctx,
                                                 UpdateResult& result) {
  InvWindowContext& wctx = static_cast<InvWindowContext&>(ctx);
  result.changed = true;

  if (route_enabled()) {
    // Routed dispatch (DESIGN.md §12): one O(words) label test rejects
    // updates no registered pattern can match — no pattern means no base
    // view either, so skipping the append is exact. Routed updates probe
    // only the live endpoint classes and record *group* ids; the per-member
    // fan-out happens once per group in FinalizeWindow.
    if (!prefilter_.MayMatch(u)) {
      NotePrefilterReject();
      return;
    }
    AppendToBaseViews(u, &ctx);
    wctx.route_scratch.clear();
    NoteRoutedCandidates(group_routes_.Route(u, wctx.route_scratch));
    for (uint32_t gid : wctx.route_scratch)
      wctx.affected_groups.emplace_back(gid, ctx.position);
    return;
  }

  AppendToBaseViews(u, &ctx);
  const std::vector<QueryId> qids = AffectedQueries(u);
  NoteRoutedCandidates(qids.size());
  for (QueryId qid : qids) wctx.affected.emplace_back(qid, ctx.position);
}

void InvertedIndexEngineBase::OnRouteGroupsRebuilt() {
  group_routes_.Clear();
  if (!route_enabled()) return;
  for (const auto& group : finalize_groups()) {
    const QueryEntry& rep = queries_.at(group->members[0]);
    std::unordered_set<GenericEdgePattern, GenericEdgePatternHash> distinct;
    for (uint32_t e = 0; e < rep.pattern.NumEdges(); ++e) {
      GenericEdgePattern p = rep.pattern.Genericized(e);
      if (distinct.insert(p).second) group_routes_.Add(p, group->id);
    }
  }
}

std::unique_ptr<Relation> InvertedIndexEngineBase::MaterializeFullPathTagged(
    const QueryEntry& entry, size_t pi, JoinIndexSource* cache,
    const WindowProvenance& prov, size_t& transient_bytes, uint32_t touch_weight) {
  const auto& sig = entry.signatures[pi];
  const Relation* first = FindBaseView(sig[0]);
  GS_DCHECK(first != nullptr);

  auto current = std::make_unique<Relation>(2);
  current->EnableProvenance();
  {
    const RowTags tags = prov.TagsFor(first);
    current->Reserve(first->NumRows());
    for (size_t i = 0; i < first->NumRows(); ++i)
      current->AppendTagged(first->Row(i), tags.TagOf(i));
  }

  for (size_t i = 1; i < sig.size(); ++i) {
    if (current->Empty()) return nullptr;
    const Relation* base = FindBaseView(sig[i]);
    GS_DCHECK(base != nullptr);
    auto next = std::make_unique<Relation>(current->arity() + 1);
    next->EnableProvenance();
    ExtendRightDelta(DeltaBatch{AllRows(*current), TagsOfProvenance(*current)},
                     *base, cache ? cache->Get(base, 0, touch_weight) : nullptr,
                     prov.TagsFor(base), *next);
    transient_bytes += next->MemoryBytes();
    current = std::move(next);
    // Non-sampling: each chain step is a whole-view join, so the sampled
    // poll could overshoot a deadline by hundreds of steps.
    if (BudgetExceededNow()) return nullptr;
  }
  if (current->Empty()) return nullptr;
  return current;
}

std::unique_ptr<Relation> InvertedIndexEngineBase::MaterializePathDeltaBatch(
    const QueryEntry& entry, size_t pi,
    const std::vector<std::pair<uint32_t, const EdgeUpdate*>>& seeds,
    JoinIndexSource* cache, const WindowProvenance& prov, size_t& transient_bytes,
    uint32_t touch_weight) {
  const auto& sig = entry.signatures[pi];
  const uint32_t arity = static_cast<uint32_t>(sig.size()) + 1;
  auto delta = std::make_unique<Relation>(arity);
  delta->EnableProvenance();

  for (size_t pos = 0; pos < sig.size(); ++pos) {
    // One tagged fragment chain per path position, seeded with *all* the
    // window's matching updates at once (a non-duplicate update's tuple is
    // always new to its matching views, so its seed tag is its own window
    // position).
    auto cur = std::make_unique<Relation>(2);
    cur->EnableProvenance();
    for (const auto& [position, u] : seeds) {
      if (!sig[pos].Matches(*u)) continue;
      const VertexId seed[2] = {u->src, u->dst};
      cur->AppendTagged(seed, position);
    }
    if (cur->Empty()) continue;
    bool dead = false;
    for (size_t j = pos; j-- > 0 && !dead;) {
      const Relation* base = FindBaseView(sig[j]);
      auto next = std::make_unique<Relation>(cur->arity() + 1);
      next->EnableProvenance();
      ExtendLeftDelta(DeltaBatch{AllRows(*cur), TagsOfProvenance(*cur)}, *base,
                      cache ? cache->Get(base, 1, touch_weight) : nullptr,
                      prov.TagsFor(base), *next);
      transient_bytes += next->MemoryBytes();
      cur = std::move(next);
      dead = cur->Empty();
    }
    for (size_t j = pos + 1; j < sig.size() && !dead; ++j) {
      const Relation* base = FindBaseView(sig[j]);
      auto next = std::make_unique<Relation>(cur->arity() + 1);
      next->EnableProvenance();
      ExtendRightDelta(DeltaBatch{AllRows(*cur), TagsOfProvenance(*cur)}, *base,
                       cache ? cache->Get(base, 0, touch_weight) : nullptr,
                       prov.TagsFor(base), *next);
      transient_bytes += next->MemoryBytes();
      cur = std::move(next);
      dead = cur->Empty();
    }
    if (dead || BudgetExceeded()) continue;
    delta->AppendAll(*cur);
  }
  return delta;
}

size_t InvertedIndexEngineBase::MemoryBytes() const {
  size_t bytes = SharedMemoryBytes();
  if (cache_ != nullptr) bytes += cache_->MemoryBytes();
  for (const auto& [qid, entry] : queries_) {
    bytes += sizeof(qid) + entry.pattern.MemoryBytes() + 2 * sizeof(void*);
    for (const auto& path : entry.paths)
      bytes += mem::OfVector(path.vertices) + mem::OfVector(path.edges);
    for (const auto& sig : entry.signatures)
      bytes += sig.capacity() * sizeof(GenericEdgePattern);
  }
  bytes += edge_ind_.MemoryBytes() + source_ind_.MemoryBytes() +
           target_ind_.MemoryBytes() + prefilter_.MemoryBytes() +
           group_routes_.MemoryBytes();
  edge_ind_.ForEach([&](const GenericEdgePattern&, const std::vector<QueryId>& qids) {
    bytes += qids.capacity() * sizeof(QueryId);
  });
  source_ind_.ForEach([&](VertexId, const std::vector<GenericEdgePattern>& ps) {
    bytes += ps.capacity() * sizeof(GenericEdgePattern);
  });
  target_ind_.ForEach([&](VertexId, const std::vector<GenericEdgePattern>& ps) {
    bytes += ps.capacity() * sizeof(GenericEdgePattern);
  });
  return bytes;
}

std::vector<uint32_t> PlanExtensionOrder(const QueryPattern& q, uint32_t seed) {
  const size_t n = q.NumEdges();
  std::vector<uint32_t> order;
  std::vector<bool> used(n, false);
  std::vector<bool> bound(q.NumVertices(), false);
  used[seed] = true;
  bound[q.edge(seed).src] = true;
  bound[q.edge(seed).dst] = true;

  for (size_t step = 1; step < n; ++step) {
    int best = -1;
    int best_score = -1;
    for (uint32_t e = 0; e < n; ++e) {
      if (used[e]) continue;
      const auto& edge = q.edge(e);
      int score = 0;
      score += bound[edge.src] ? 4 : (q.vertex(edge.src).is_var ? 0 : 1);
      score += bound[edge.dst] ? 4 : (q.vertex(edge.dst).is_var ? 0 : 1);
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(e);
      }
    }
    used[best] = true;
    order.push_back(static_cast<uint32_t>(best));
    bound[q.edge(best).src] = true;
    bound[q.edge(best).dst] = true;
  }
  return order;
}

}  // namespace baseline
}  // namespace gstream
