#include "engine/view_engine_base.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <unordered_set>

#include "common/logging.h"

namespace gstream {

namespace {

/// Union-find over window slots (path-halving; windows are small).
uint32_t FindRoot(std::vector<uint32_t>& parent, uint32_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

void Union(std::vector<uint32_t>& parent, uint32_t a, uint32_t b) {
  a = FindRoot(parent, a);
  b = FindRoot(parent, b);
  if (a != b) parent[b < a ? a : b] = b < a ? b : a;  // smaller slot wins
}

struct ElemHash {
  size_t operator()(uint64_t e) const { return Mix64(e); }
};

/// Generalization-profile encoding sentinels (pattern ids are small nonzero
/// values, so the top of the 64-bit space is free for markers).
constexpr uint64_t kProfileNextUpdate = ~0ull;
constexpr uint64_t kProfileDuplicate = ~0ull - 1;

/// Partition-memo bound: windows of a homogeneous stream collapse to a
/// handful of profiles, so a small cache captures the steady state; a
/// profile churn (adversarial or ingest-phase) just degrades to recompute.
constexpr size_t kPartitionCacheMax = 64;

}  // namespace

Relation* ViewEngineBase::GetOrCreateBaseView(const GenericEdgePattern& p) {
  auto it = base_views_.find(p);
  if (it == base_views_.end())
    it = base_views_.emplace(p, std::make_unique<Relation>(2)).first;
  return it->second.get();
}

Relation* ViewEngineBase::FindBaseView(const GenericEdgePattern& p) const {
  auto it = base_views_.find(p);
  return it == base_views_.end() ? nullptr : it->second.get();
}

Relation* ViewEngineBase::RefBaseView(const GenericEdgePattern& p) {
  ++base_view_refs_[p];
  auto it = base_views_.find(p);
  if (it != base_views_.end()) return it->second.get();

  // First reference creates the view — backfilled from the live edge set,
  // so a query registered (or re-registered after a removal wave) mid-
  // stream sees exactly the base-view contents it would have seen had it
  // been registered up front. This pins down the dynamic-QDB semantics:
  // notifications report only *future* matches, but those matches may
  // combine old and new edges, same as the oracle's recount-and-diff. Only
  // the pattern's own label can match, so only its live edges are walked.
  Relation* view = GetOrCreateBaseView(p);
  seen_edges_.ForEachWithLabel(p.label, [&](VertexId src, VertexId dst) {
    if (!p.Matches(src, p.label, dst)) return;
    const VertexId row[2] = {src, dst};
    view->Append(row);
  });
  return view;
}

void ViewEngineBase::UnrefBaseView(const GenericEdgePattern& p) {
  auto ref = base_view_refs_.find(p);
  GS_DCHECK(ref != base_view_refs_.end() && ref->second > 0);
  if (--ref->second > 0) return;
  base_view_refs_.erase(ref);

  // Last reference: no surviving query routes through this pattern, so the
  // shared view (and everything keyed on it) is garbage. The rows it held
  // are reconstructible from the seen-edge set if the pattern ever
  // re-registers — exactly the mid-stream AddQuery backfill contract.
  auto it = base_views_.find(p);
  GS_DCHECK(it != base_views_.end());
  OnRelationEvicted(it->second.get());
  base_views_.erase(it);
  pattern_ids_.Erase(p);  // footprint ids are window-scoped; safe to recycle
  // Cached partitions may key on the recycled id; the removal wave also
  // marks the reaches dirty, but clear eagerly so no window in between can
  // see a stale partition.
  partition_cache_.clear();
}

void ViewEngineBase::CompactSharedState() { pattern_ids_.Compact(); }

void ViewEngineBase::AppendToBaseViews(const EdgeUpdate& u, WindowContext* ctx) {
  const VertexId row[2] = {u.src, u.dst};
  for (const auto& g : Generalizations(u)) {
    auto it = base_views_.find(g);
    if (it == base_views_.end()) continue;
    if (ctx != nullptr) ctx->prov.Checkpoint(it->second.get(), ctx->position);
    it->second->Append(row);
  }
}

void ViewEngineBase::EraseViewRow(Relation* rel, const VertexId* row) {
  const size_t i = rel->Find(row);
  // A live edge sits in every base view it matches, and a retraction only
  // erases rows it derived from the pre-delete views.
  GS_DCHECK(i != Relation::kNoRow);
  if (i == Relation::kNoRow) return;
  EraseViewRowAt(rel, i);
}

bool ViewEngineBase::RemoveFromBaseViews(const EdgeUpdate& u) {
  if (!seen_edges_.Erase(u)) return false;
  EraseFromBaseViews(u);
  return true;
}

void ViewEngineBase::EraseFromBaseViews(const EdgeUpdate& u) {
  const VertexId row[2] = {u.src, u.dst};
  for (const auto& g : Generalizations(u)) {
    auto it = base_views_.find(g);
    if (it != base_views_.end()) EraseViewRow(it->second.get(), row);
  }
}

bool ViewEngineBase::IsDuplicateUpdate(const EdgeUpdate& u) {
  return !seen_edges_.Insert(u);
}

void ViewEngineBase::EnsureReach() {
  if (!reach_dirty_) return;
  pattern_reach_.clear();
  BuildPatternReach();
  reach_dirty_ = false;
}

bool ViewEngineBase::CollectFootprint(const EdgeUpdate& u, Footprint& out) {
  EnsureReach();
  for (const auto& g : Generalizations(u)) {
    // Unregistered patterns have no base view and no index entries — an
    // insert matching only those touches nothing.
    auto it = pattern_reach_.find(g);
    if (it != pattern_reach_.end())
      out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return true;
}

std::vector<UpdateResult> ViewEngineBase::ApplyBatch(const EdgeUpdate* updates,
                                                     size_t n) {
  std::vector<UpdateResult> results;
  results.reserve(n);
  const bool mixed = SupportsMixedWindows();
  GS_DCHECK(!mixed || SupportsWindowDelta());
  size_t i = 0;
  while (i < n) {
    if (!mixed && updates[i].op == UpdateOp::kDelete) {
      // Without mixed windows a deletion retracts shared state with global
      // reach at once; it acts as a barrier between insert windows.
      results.push_back(ApplyUpdate(updates[i]));
      ++i;
      if (results.back().timed_out) return results;
      continue;
    }
    size_t j = i;
    while (j < n && (mixed || updates[j].op != UpdateOp::kDelete)) ++j;
    if (!RunWindow(updates, i, j, results)) return results;
    // A mixed window may end before `j`; every executed update left one
    // result.
    i = results.size();
  }
  return results;
}

bool ViewEngineBase::RunWindow(const EdgeUpdate* updates, size_t lo, size_t hi,
                               std::vector<UpdateResult>& results) {
  if (window_cache_enabled_) window_cache_ = std::make_unique<WindowJoinCache>();
  const bool ok = RunWindowImpl(updates, lo, hi, results);
  if (window_cache_ != nullptr) {
    // The window's build tables are transient scratch, never engine state.
    NotePeakTransient(window_cache_->MemoryBytes());
    window_cache_.reset();
  }
  return ok;
}

void ViewEngineBase::ProcessInsertDelta(const EdgeUpdate& u, WindowContext& ctx,
                                        UpdateResult& result) {
  (void)ctx;
  result = ProcessInsert(u);
}

void ViewEngineBase::ProcessDeleteDelta(const EdgeUpdate& u, WindowContext& ctx,
                                        UpdateResult& result) {
  (void)u;
  (void)ctx;
  (void)result;
  GS_CHECK_MSG(false, "ProcessDeleteDelta without SupportsMixedWindows");
}

void ViewEngineBase::FinalizeWindow(WindowContext& ctx, UpdateResult* window_results) {
  (void)ctx;
  (void)window_results;
}

void ViewEngineBase::EnsureFinalizeGroups() {
  if (!finalize_groups_dirty_) return;
  finalize_groups_dirty_ = false;
  finalize_groups_.clear();
  group_of_query_.clear();
  if (!shared_finalize_enabled_ && !route_enabled_) return;

  std::vector<QueryId> qids;
  ListQueryIds(qids);
  std::sort(qids.begin(), qids.end());
  PrepareFinalizeSignatures(qids);

  // Signature encoding is per-query independent and read-only (after the
  // prepare hook), so a registration wave big enough to matter fans out
  // across the batch scheduler; the grouping below stays sequential either
  // way, so the group order is identical to a single-threaded build. Chunks
  // are deliberately smaller than executors so idle executors keep stealing
  // work off the coordinator's deque until the wave drains.
  std::vector<std::vector<uint64_t>> keys(qids.size());
  std::vector<uint8_t> shareable(qids.size(), 0);
  constexpr size_t kParallelSignatureMin = 64;
  if (sched_ != nullptr && qids.size() >= kParallelSignatureMin) {
    const size_t num_tasks = static_cast<size_t>(sched_->size()) * 4;
    const size_t chunk = (qids.size() + num_tasks - 1) / num_tasks;
    for (size_t t = 0; t < num_tasks; ++t) {
      const size_t lo = t * chunk;
      const size_t hi = std::min(lo + chunk, qids.size());
      if (lo >= hi) break;
      sched_->Submit([this, &qids, &keys, &shareable, lo, hi] {
        for (size_t i = lo; i < hi; ++i)
          shareable[i] = EncodeFinalizeSignature(qids[i], keys[i]) ? 1 : 0;
      });
    }
    sched_->Wait();
  } else {
    for (size_t i = 0; i < qids.size(); ++i)
      shareable[i] = EncodeFinalizeSignature(qids[i], keys[i]) ? 1 : 0;
  }

  // Full-key grouping (no hashing shortcut): a spurious collision would fan
  // one query's results out to an unrelated query, so keys compare by value.
  // Rebuilds are query-lifecycle-rate, not update-rate — an ordered map over
  // the encoded keys is plenty.
  std::map<std::vector<uint64_t>, std::vector<QueryId>> by_key;
  std::vector<QueryId> privates;  ///< Signatures that opted out of sharing.
  for (size_t i = 0; i < qids.size(); ++i) {
    if (shareable[i])
      by_key[std::move(keys[i])].push_back(qids[i]);  // members stay ascending
    else
      privates.push_back(qids[i]);
  }

  const auto add_group = [&](std::vector<QueryId>&& members, bool shareable) {
    auto group = std::make_unique<FinalizeGroup>();
    group->id = static_cast<uint32_t>(finalize_groups_.size());
    group->shareable = shareable;
    group->members = std::move(members);
    for (QueryId qid : group->members) group_of_query_[qid] = group.get();
    finalize_groups_.push_back(std::move(group));
  };

  for (auto& [k, members] : by_key) {
    // With routing off, groups exist only for fan-out sharing — singletons
    // take the per-query path. With routing on every query needs a group
    // (groups are the routing targets).
    if (!route_enabled_ && members.size() < 2) continue;
    add_group(std::move(members), /*shareable=*/true);
  }
  if (route_enabled_)
    for (QueryId qid : privates)
      add_group(std::vector<QueryId>{qid}, /*shareable=*/false);

  OnRouteGroupsRebuilt();
}

ViewEngineBase::SharedFinalizeMemo* ViewEngineBase::SharedMemoFor(
    QueryId qid, WindowContext& ctx) const {
  auto it = group_of_query_.find(qid);
  if (it == group_of_query_.end()) return nullptr;
  // Routed grouping materializes singleton and opted-out groups too; those
  // never share a memo.
  if (!GroupSharingApplies(*it->second)) return nullptr;
  return &ctx.shared[it->second];
}

void ViewEngineBase::AppendFilterSignature(const QueryPattern& q,
                                           std::vector<uint64_t>& out) {
  out.push_back(~0ull);  // section marker: filter spec follows
  out.push_back(q.NumVertices());
  for (const auto& c : q.constraints()) {
    out.push_back(c.vertex);
    out.push_back(c.key);
    out.push_back(static_cast<uint64_t>(c.op));
    out.push_back(static_cast<uint64_t>(c.value));
  }
}

void ViewEngineBase::ScatterTagCounts(std::vector<uint32_t>& tags, QueryId qid,
                                      UpdateResult* window_results) {
  std::sort(tags.begin(), tags.end());
  for (size_t r = 0; r < tags.size();) {
    size_t e = r;
    while (e < tags.size() && tags[e] == tags[r]) ++e;
    window_results[tags[r] - 1].AddQueryCount(qid, e - r);
    r = e;
  }
}

bool ViewEngineBase::RunWindowImpl(const EdgeUpdate* updates, size_t lo,
                                   size_t hi, std::vector<UpdateResult>& results) {
  // Pre-pass, in stream order: the seen-edge set is global, so the
  // coordinator resolves every insert's duplicate check and every
  // deletion's presence check before any sharding. A no-op (duplicate
  // insert, deletion of an absent edge) gets the empty result, exactly as in
  // sequential execution. A mixed window ends before an insert re-adding an
  // edge the window deleted: the edge's retired rows still sit in the views
  // (and their dedup sets) until the window ends, and a row lives through
  // one interval per window.
  std::vector<uint8_t> noop;
  noop.reserve(hi - lo);
  std::unordered_set<EdgeUpdate, EdgeKeyHash, EdgeKeyEq> deleted;
  for (size_t k = lo; k < hi; ++k) {
    const EdgeUpdate& u = updates[k];
    if (u.op == UpdateOp::kDelete) {
      const bool present = seen_edges_.Erase(u);
      if (present) deleted.insert(u);
      noop.push_back(present ? 0 : 1);
    } else {
      if (!deleted.empty() && deleted.count(u) > 0) break;
      noop.push_back(IsDuplicateUpdate(u) ? 1 : 0);
    }
  }
  const size_t count = noop.size();
  const bool has_delete = !deleted.empty();

  // Window-delta execution needs ≥ 2 updates to amortize anything; single-
  // insert windows take the per-update path unchanged. A deletion inside a
  // window always takes the delta path (the pre-pass already applied its
  // seen-edge half).
  const bool delta = SupportsWindowDelta() && (count > 1 || has_delete);

  // Shared finalization groups are read (immutably) by FinalizeWindow, which
  // may run on shard threads — rebuild on the coordinator, like the reaches.
  if (delta) EnsureFinalizeGroups();

  // On a mid-window timeout the pre-pass changed the seen-edge set for
  // updates we never applied; undo the suffix, newest first, so it leaves
  // no trace (ApplyBatch contract).
  const auto unwind_suffix = [&](size_t first_unapplied) {
    for (size_t j = count; j-- > first_unapplied;) {
      if (noop[j]) continue;
      const EdgeUpdate& u = updates[lo + j];
      if (u.op == UpdateOp::kDelete)
        seen_edges_.Insert(u);
      else
        seen_edges_.Erase(u);
    }
  };

  // The routed finalize emits counts per signature group, interleaving query
  // ids across groups; restore each slot's ascending-qid invariant. The
  // legacy paths emit in ascending qid order already.
  const auto normalize_order = [&](std::vector<UpdateResult>& window) {
    if (!route_enabled_) return;
    for (UpdateResult& r : window) r.SortByQuery();
  };

  const auto run_sequential = [&]() {
    for (size_t k = 0; k < count; ++k) {
      results.push_back(noop[k] ? UpdateResult{} : ProcessInsert(updates[lo + k]));
      if (results.back().timed_out) {
        unwind_suffix(k + 1);
        return false;
      }
    }
    return true;
  };

  // Single-threaded delta path: maintain views per update in stream order,
  // then run every deferred final join once at the window boundary. On a
  // budget trip results are partial, as everywhere under timeout, but the
  // applied deletions' retired rows are still erased.
  const auto run_sequential_delta = [&]() {
    std::vector<UpdateResult> window(count);
    std::unique_ptr<WindowContext> ctx = NewWindowContext();
    ctx->window_updates = updates + lo;
    for (size_t k = 0; k < count; ++k) {
      if (noop[k]) continue;
      ctx->position = static_cast<uint32_t>(k) + 1;
      const EdgeUpdate& u = updates[lo + k];
      if (u.op == UpdateOp::kDelete)
        ProcessDeleteDelta(u, *ctx, window[k]);
      else
        ProcessInsertDelta(u, *ctx, window[k]);
      if (BudgetExceeded()) {
        EraseRetired(*ctx);
        unwind_suffix(k + 1);
        for (size_t j = 0; j <= k; ++j) results.push_back(std::move(window[j]));
        results.back().timed_out = true;
        return false;
      }
    }
    FinalizeWindow(*ctx, window.data());
    EraseRetired(*ctx);
    normalize_order(window);
    for (size_t k = 0; k < count; ++k) results.push_back(std::move(window[k]));
    if (budget_ != nullptr && budget_->ExceededNow()) {
      results.back().timed_out = true;
      return false;
    }
    return true;
  };

  const auto run_single = [&]() { return delta ? run_sequential_delta() : run_sequential(); };
  // Deletions reach shared state globally, so a window holding one runs on
  // the coordinator; insert-only windows shard.
  if (sched_ == nullptr || count == 1 || has_delete) return run_single();

  // ---- shard partition: generalization-profile memo, else union-find ----
  //
  // The partition is a pure function of the window's *generalization
  // profile*: per update, the ids of the registered patterns it matches
  // (the default CollectFootprint concatenates exactly those patterns'
  // precomputed reaches), plus the duplicate mask. Identical-profile
  // windows — the steady state of a homogeneous stream — reuse the shard
  // member lists and skip the element-level union-find entirely.
  const std::vector<std::vector<uint32_t>>* shard_lists = nullptr;
  std::vector<uint64_t> profile;
  if (footprint_pattern_local_) {
    EnsureReach();
    profile.reserve(count * 3);
    for (size_t k = 0; k < count; ++k) {
      profile.push_back(kProfileNextUpdate);
      if (noop[k]) {
        profile.push_back(kProfileDuplicate);
        continue;
      }
      for (const auto& g : Generalizations(updates[lo + k])) {
        if (pattern_reach_.find(g) == pattern_reach_.end()) continue;
        profile.push_back(PatternId(g));
      }
    }
    auto hit = partition_cache_.find(profile);
    if (hit != partition_cache_.end()) {
      footprint_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      shard_lists = &hit->second.shard_members;
    }
  }

  std::vector<std::vector<uint32_t>> computed_shards;
  if (shard_lists == nullptr) {
    // Footprint collection + union-find grouping: two inserts sharing any
    // footprint element may interact and land in one shard; shards are
    // therefore pairwise disjoint in everything they read or write.
    std::vector<Footprint> fps(count);
    std::vector<uint32_t> parent(count);
    std::iota(parent.begin(), parent.end(), 0u);
    FlatMap<uint64_t, uint32_t, ElemHash> owner;
    for (size_t k = 0; k < count; ++k) {
      if (noop[k]) continue;
      if (!CollectFootprint(updates[lo + k], fps[k])) return run_single();
      for (uint64_t e : fps[k]) {
        uint32_t& first = owner.GetOrCreate(e);
        if (first == 0) {
          first = static_cast<uint32_t>(k) + 1;  // 1-based; 0 = unclaimed
        } else {
          Union(parent, first - 1, static_cast<uint32_t>(k));
        }
      }
    }

    // Shard member lists, ascending stream position within each shard. The
    // root is always a shard's smallest slot, so emitting shards in
    // first-member order keeps both the member lists and the shard order
    // deterministic.
    std::vector<int32_t> shard_of_root(count, -1);
    for (size_t k = 0; k < count; ++k) {
      if (noop[k]) continue;
      const uint32_t root = FindRoot(parent, static_cast<uint32_t>(k));
      if (shard_of_root[root] < 0) {
        shard_of_root[root] = static_cast<int32_t>(computed_shards.size());
        computed_shards.emplace_back();
      }
      computed_shards[static_cast<size_t>(shard_of_root[root])].push_back(
          static_cast<uint32_t>(k));
    }

    if (footprint_pattern_local_) {
      if (partition_cache_.size() >= kPartitionCacheMax)
        partition_cache_.clear();
      WindowPartition& slot = partition_cache_[std::move(profile)];
      slot.shard_members = std::move(computed_shards);
      shard_lists = &slot.shard_members;
    } else {
      shard_lists = &computed_shards;
    }
  }

  const std::vector<std::vector<uint32_t>>& shards = *shard_lists;
  if (shards.size() <= 1) return run_single();

  // ---- task planning: grain-packed shard groups ----
  //
  // Shards vastly outnumber executors on busy windows, and per-shard tasks
  // would pay queue and wakeup costs per shard — so contiguous shards are
  // packed into tasks of roughly live/(P*8) members. The over-decomposition
  // (≈8 tasks per executor) is what lets stealing balance skew: a task that
  // landed one hot shard runs alone while idle executors steal the rest one
  // task at a time, so the window's makespan tracks the hot shard instead
  // of the hot shard plus a static 1/P stripe of everything else.
  size_t live = 0;
  for (const auto& members : shards) live += members.size();
  const size_t grain =
      std::max<size_t>(1, live / (static_cast<size_t>(sched_->size()) * 8));
  struct TaskSpan {
    uint32_t first = 0;  ///< First shard index of the span.
    uint32_t limit = 0;  ///< One past the last shard index.
  };
  std::vector<TaskSpan> tasks;
  {
    TaskSpan span;
    size_t span_members = 0;
    for (uint32_t s = 0; s < shards.size(); ++s) {
      span_members += shards[s].size();
      if (span_members >= grain) {
        span.limit = s + 1;
        tasks.push_back(span);
        span.first = s + 1;
        span_members = 0;
      }
    }
    if (span.first < shards.size()) {
      span.limit = static_cast<uint32_t>(shards.size());
      tasks.push_back(span);
    }
  }

  // Shards must not poll the (non-thread-safe) budget; the coordinator
  // checks it at the window boundary instead.
  Budget* saved_budget = budget_;
  budget_ = nullptr;
  // Each task owns a full-window result arena: FinalizeWindow scatters by
  // global window position, and distinct tasks never share a position, so
  // arenas also kill false sharing on the hot result slots. On the delta
  // path each shard replays its members' maintenance in stream order, then
  // finalizes its own queries once — tags are global window positions, so
  // the merged results read exactly like sequential execution.
  const uint64_t steals_before = sched_->steals();
  std::vector<std::vector<UpdateResult>> arenas(tasks.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    sched_->Submit([this, updates, lo, count, delta, t, &tasks, &shards,
                    &arenas] {
      std::vector<UpdateResult>& arena = arenas[t];
      arena.resize(count);
      const TaskSpan span = tasks[t];
      for (uint32_t s = span.first; s < span.limit; ++s) {
        if (delta) {
          std::unique_ptr<WindowContext> ctx = NewWindowContext();
          ctx->window_updates = updates + lo;
          for (uint32_t k : shards[s]) {
            ctx->position = k + 1;
            ProcessInsertDelta(updates[lo + k], *ctx, arena[k]);
          }
          FinalizeWindow(*ctx, arena.data());
        } else {
          for (uint32_t k : shards[s]) arena[k] = ProcessInsert(updates[lo + k]);
        }
      }
    });
  }
  sched_->Wait();
  budget_ = saved_budget;
  batch_tasks_.fetch_add(tasks.size(), std::memory_order_relaxed);
  batch_steals_.fetch_add(sched_->steals() - steals_before,
                          std::memory_order_relaxed);

  // Deterministic positional merge, in task-submission order. Positions are
  // task-disjoint, so the merged window is byte-identical to sequential
  // execution no matter which executor ran which task.
  std::vector<UpdateResult> window(count);  // no-op slots stay the no-op result
  for (size_t t = 0; t < tasks.size(); ++t) {
    for (uint32_t s = tasks[t].first; s < tasks[t].limit; ++s)
      for (uint32_t k : shards[s]) window[k] = std::move(arenas[t][k]);
  }

  normalize_order(window);
  for (size_t k = 0; k < count; ++k) results.push_back(std::move(window[k]));
  if (budget_ != nullptr && budget_->ExceededNow()) {
    results.back().timed_out = true;
    return false;
  }
  return true;
}

uint64_t ViewEngineBase::StateFingerprint() const {
  // Each section folds its elements with a commutative sum of per-element
  // Mix64 digests (a multiset hash), so the unordered containers' iteration
  // order cannot leak into the value; the section digests then chain
  // order-sensitively. Base views contribute (pattern, row count) only —
  // their row *contents* are a pure function of the seen-edge set already
  // digested, and row order is batch-schedule-dependent by design.
  uint64_t edges = 0;
  seen_edges_.ForEach([&](VertexId src, LabelId label, VertexId dst) {
    edges += Mix64(Mix64((static_cast<uint64_t>(src) << 32) ^ dst) ^
                   (static_cast<uint64_t>(label) * 0x9e3779b97f4a7c15ull));
  });

  uint64_t views = 0;
  for (const auto& [p, rel] : base_views_) {
    uint64_t h = Mix64((static_cast<uint64_t>(p.src) << 32) ^ p.dst);
    h = Mix64(h ^ (static_cast<uint64_t>(p.label) * 0x9e3779b97f4a7c15ull));
    views += Mix64(h ^ static_cast<uint64_t>(rel->NumRows()));
  }

  std::vector<QueryId> qids;
  ListQueryIds(qids);
  std::sort(qids.begin(), qids.end());

  uint64_t fp = Mix64(0x67736220666470ull);  // section-chain salt
  fp = Mix64(fp ^ edges);
  fp = Mix64(fp ^ views);
  fp = Mix64(fp ^ static_cast<uint64_t>(qids.size()));
  for (QueryId qid : qids) fp = Mix64(fp ^ static_cast<uint64_t>(qid));
  return fp;
}

size_t ViewEngineBase::SharedMemoryBytes() const {
  size_t bytes = sizeof(*this) + peak_transient_bytes_.load(std::memory_order_relaxed);
  for (const auto& [p, rel] : base_views_)
    bytes += sizeof(p) + rel->MemoryBytes() + 2 * sizeof(void*);
  bytes += base_view_refs_.size() *
           (sizeof(GenericEdgePattern) + sizeof(uint32_t) + 2 * sizeof(void*));
  bytes += seen_edges_.MemoryBytes();
  bytes += pattern_ids_.MemoryBytes();
  for (const auto& [p, fp] : pattern_reach_)
    bytes += sizeof(p) + fp.capacity() * sizeof(uint64_t) + 2 * sizeof(void*);
  return bytes;
}

}  // namespace gstream
