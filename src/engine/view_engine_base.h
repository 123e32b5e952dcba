#ifndef GSTREAM_ENGINE_VIEW_ENGINE_BASE_H_
#define GSTREAM_ENGINE_VIEW_ENGINE_BASE_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <map>

#include "common/flat_map.h"
#include "common/task_scheduler.h"
#include "engine/engine.h"
#include "matview/join_cache.h"
#include "matview/relation.h"
#include "query/edge_pattern.h"

namespace gstream {

/// Shared plumbing of the view-based engines (TRIC/TRIC+/INV/INV+/INC/INC+):
///
///  * the global edge-level materialized views matV[e], one per distinct
///    genericized edge pattern appearing in the query set (§4.1
///    "Materialization") — these are *shared* across queries and across
///    covering paths;
///  * duplicate-update suppression (the edge set has set semantics);
///  * peak-transient accounting: the base algorithms rebuild hash tables and
///    intermediate join results per update and discard them, which dominates
///    their real memory peaks (Fig. 13(c)); we track the high-water mark of
///    that scratch;
///  * sharded batch execution (`ApplyBatch`): a window of consecutive edge
///    insertions is grouped by the footprint of everything each insert's
///    processing can read or write — genericized edge patterns (base views),
///    trie nodes (prefix views), query ids (per-query state). Footprint-
///    disjoint shards commute, so they run concurrently on the engine's
///    work-stealing `TaskScheduler` while each shard replays its members in
///    stream order. Shards are packed into tasks by member count (a hot
///    shard rides alone; small shards coalesce), each task writes into its
///    own full-window result arena, and the coordinator merges the arenas
///    back in task-submission order at the window barrier — positions are
///    task-disjoint, so the merged window is byte-identical to sequential
///    execution regardless of which executor ran what. Duplicate and
///    presence checks are order-sensitive and global, so the pre-pass that
///    resolves them runs on the coordinator. Deletions are window barriers
///    for the engines without mixed windows (INV/INC families); TRIC/TRIC+
///    (`SupportsMixedWindows`) keep deletions inside the window instead, and
///    a window holding a deletion runs on the coordinator.
///    The footprint/union-find partition is memoized per window shape: the
///    shard member lists are a pure function of the window's
///    *generalization profile* (the per-update sequence of matched
///    registered pattern ids, plus the duplicate mask), so identical-shape
///    windows — the steady state of a homogeneous stream — skip the
///    element-level union-find entirely (see footprint_cache_hits).
///  * window-delta execution (DESIGN.md §7): within an insert window the
///    engines that opt in (`SupportsWindowDelta`) split each update into
///    cheap view maintenance (`ProcessInsertDelta`, run per update in stream
///    order) and the expensive final joins (`FinalizeWindow`, run once per
///    (query, window) over the window's accumulated, provenance-tagged
///    deltas). Emitted matches carry the window position they would have
///    been produced at by sequential execution, so grouping them by tag
///    reconstructs byte-identical per-update results. The per-update path
///    remains the `--batch 1` / single-insert degenerate case.
///  * mixed insert/delete windows (DESIGN.md §16): an engine that opts in
///    (`SupportsMixedWindows`) takes a whole `ApplyBatch` call as one delta
///    window, deletions included. A deletion at window position q retracts
///    the shared state at q (`ProcessDeleteDelta`) but only *retires* the
///    derived rows the final joins read, so the window still ends with one
///    FinalizeWindow; `EraseRetired` erases them afterwards. A window ends
///    early only before an insert that re-adds an edge it deleted.
///  * shared window finalization (DESIGN.md §9): live queries are grouped by
///    their covering-path join signature — the ordered shared-view ids plus
///    the join/filter spec of the final join (`EncodeFinalizeSignature`).
///    Queries with equal signatures run *identical* finalize computations,
///    so each engine's FinalizeWindow evaluates one member per group per
///    window, memoizes the tagged result in the window context, and fans the
///    per-position counts out to every other member — collapsing N
///    per-query passes into one per distinct signature. The grouping is
///    rebuilt lazily after AddQuery/RemoveQuery (MarkReachDirty doubles as
///    the invalidation hook) and computed on the coordinator before shards
///    fan out; signature-equal queries always share a shard (their
///    footprints overlap on the very views the signature names), so the
///    shard-local memo sees every member.
class ViewEngineBase : public ContinuousEngine {
 public:
  std::vector<UpdateResult> ApplyBatch(const EdgeUpdate* updates, size_t n) override;

  void SetBatchThreads(int threads) override {
    sched_ = threads > 1 ? std::make_unique<TaskScheduler>(threads) : nullptr;
  }

  uint64_t batch_tasks() const override {
    return batch_tasks_.load(std::memory_order_relaxed);
  }

  uint64_t batch_steals() const override {
    return batch_steals_.load(std::memory_order_relaxed);
  }

  uint64_t footprint_cache_hits() const override {
    return footprint_cache_hits_.load(std::memory_order_relaxed);
  }

  uint64_t final_join_passes() const override {
    return final_join_passes_.load(std::memory_order_relaxed);
  }

  uint64_t shared_finalize_groups() const override {
    return shared_finalize_groups_.load(std::memory_order_relaxed);
  }

  void SetSharedFinalize(bool enabled) override {
    shared_finalize_enabled_ = enabled;
    finalize_groups_dirty_ = true;
  }

  uint64_t routed_candidates() const override {
    return routed_candidates_.load(std::memory_order_relaxed);
  }

  uint64_t prefilter_rejects() const override {
    return prefilter_rejects_.load(std::memory_order_relaxed);
  }

  void SetRouteIndex(bool enabled) override {
    route_enabled_ = enabled;
    finalize_groups_dirty_ = true;
  }

  /// Order-insensitive digest of the shared durable state (see engine.h):
  /// the applied edge set, every base view's (pattern, row count), and the
  /// sorted live query ids. Deterministic across processes and batch/thread
  /// configurations — the ingest recovery protocol compares it against the
  /// snapshot's value after a fast-forward replay. Engine-private structures
  /// (tries, cached indexes) are pure functions of this state plus the
  /// registration order, so the shared layer pins them down.
  uint64_t StateFingerprint() const override;

 protected:
  /// One signature group: the live queries (ascending) whose finalize
  /// signatures are equal. With the routing index off only multi-member
  /// shareable groups are materialized (singletons take the plain per-query
  /// path); with routing on *every* live query belongs to exactly one group —
  /// groups double as the routing targets (DESIGN.md §12), and queries whose
  /// signature opted out of sharing get private singleton groups
  /// (`shareable == false`).
  struct FinalizeGroup {
    uint32_t id = 0;  ///< Dense index into finalize_groups() (routing target).
    bool shareable = true;  ///< False: signature opted out of fan-out sharing.
    std::vector<QueryId> members;
  };

  /// Window-local memo of one group's finalize evaluation, held in the
  /// shard's WindowContext: the first member processed evaluates and stores
  /// the tagged outcome, every later member replays it. `runtime_key` pins
  /// the window-specific inputs (affected covering paths / seed positions) —
  /// signature-equal queries always agree on it, but a mismatch falls back
  /// to an independent evaluation rather than trusting the memo.
  struct SharedFinalizeMemo {
    bool evaluated = false;
    bool pass_ran = false;       ///< The evaluation counted a final-join pass.
    bool shared_counted = false; ///< Already counted in shared_finalize_groups.
    std::vector<uint64_t> runtime_key;
    /// Window position per new assignment (ScatterTagCounts input).
    std::vector<uint32_t> tags;
    /// Engine-specific scalar rider (INV: end-of-window embedding total).
    uint64_t total = 0;

    /// Records one evaluation outcome (the single writer path — every
    /// engine's FinalizeWindow stores through here so the fields cannot be
    /// half-updated): `t == nullptr` means a no-op outcome (no tags).
    void Store(bool ran, std::vector<uint64_t>&& key,
               const std::vector<uint32_t>* t, uint64_t tot = 0) {
      evaluated = true;
      pass_ran = ran;
      runtime_key = std::move(key);
      total = tot;
      if (t != nullptr)
        tags = *t;
      else
        tags.clear();
    }
  };

  /// Per-shard context of one delta window: the provenance checkpoints of
  /// every relation the shard's updates touch, plus the engine's deferred-
  /// finalize state (subclasses extend it). One instance per shard, so no
  /// synchronization — shards are footprint-disjoint.
  struct WindowContext {
    virtual ~WindowContext() = default;
    uint32_t position = 0;  ///< 1-based window position of the insert in flight.
    /// The window's updates; slot p - 1 is window position p (set by the
    /// coordinator before the first ProcessInsertDelta).
    const EdgeUpdate* window_updates = nullptr;
    WindowProvenance prov;
    /// Shared-finalize memos of the groups this shard finalizes.
    std::unordered_map<const FinalizeGroup*, SharedFinalizeMemo> shared;
  };

  /// True when the engine implements the window-delta protocol below;
  /// otherwise batch windows replay `ProcessInsert` per update.
  virtual bool SupportsWindowDelta() const { return false; }

  /// True when delta windows may hold deletions (`ProcessDeleteDelta`,
  /// `EraseRetired`); otherwise each deletion is a barrier applied through
  /// `ApplyUpdate` between insert windows. Implies SupportsWindowDelta.
  virtual bool SupportsMixedWindows() const { return false; }

  virtual std::unique_ptr<WindowContext> NewWindowContext() {
    return std::make_unique<WindowContext>();
  }

  /// Delta-path maintenance for one insert (`ctx.position` is set): update
  /// the shared views and routing state, checkpoint touched relations in
  /// `ctx.prov`, and record which queries need finalizing — but defer every
  /// final join to FinalizeWindow. `result` is the update's slot in the
  /// window's result vector; maintenance fills `changed`, FinalizeWindow
  /// adds the per-query counts.
  virtual void ProcessInsertDelta(const EdgeUpdate& u, WindowContext& ctx,
                                  UpdateResult& result);

  /// Delta-path deletion of a present edge at `ctx.position` (mixed windows
  /// only; the window pre-pass already removed it from the seen-edge set):
  /// retract the shared state the deletion reaches, but only retire — not
  /// erase — rows the window's final joins may still read, so rows keep
  /// their ids and provenance tags until `EraseRetired`.
  virtual void ProcessDeleteDelta(const EdgeUpdate& u, WindowContext& ctx,
                                  UpdateResult& result);

  /// Ends a mixed window (after FinalizeWindow, or after a budget trip cut
  /// it short): erases the rows its deletions retired. Default: nothing.
  virtual void EraseRetired(WindowContext& ctx) { (void)ctx; }

  /// Runs the deferred final joins of `ctx`'s shard: exactly one pass per
  /// (query, window), scattering match counts onto `window_results[p - 1]`
  /// for window position `p` (tags never cross shard boundaries — a query's
  /// positions are its own shard's members).
  virtual void FinalizeWindow(WindowContext& ctx, UpdateResult* window_results);

  /// Bumps the per-query final-join pass counter (see final_join_passes).
  void NoteFinalJoinPass() {
    final_join_passes_.fetch_add(1, std::memory_order_relaxed);
  }

  // ----- shared-finalize planner (DESIGN.md §9) -----

  /// Engine hook: append a canonical encoding of `qid`'s window-finalize
  /// computation — the ordered ids of the shared views its final join reads
  /// plus the join/filter spec (binding schemas, property constraints).
  /// Two queries with equal encodings MUST produce identical FinalizeWindow
  /// outcomes for any window. Return false to opt the query out of sharing.
  /// Must be read-only (EnsureFinalizeGroups fans the encode loop out across
  /// the batch pool when a wave of queries registers at once); mutating
  /// preparation belongs in PrepareFinalizeSignatures.
  virtual bool EncodeFinalizeSignature(QueryId qid, std::vector<uint64_t>& out) {
    (void)qid;
    (void)out;
    return false;
  }

  /// Engine hook fired once on the coordinator thread before the (possibly
  /// parallel) EncodeFinalizeSignature loop: intern anything the encodes
  /// would otherwise create lazily (INV pre-interns pattern ids here), so
  /// the encodes themselves are pure reads. Default: nothing.
  virtual void PrepareFinalizeSignatures(const std::vector<QueryId>& qids) {
    (void)qids;
  }

  /// Appends the registered query ids (any order).
  virtual void ListQueryIds(std::vector<QueryId>& out) const = 0;

  /// Rebuilds the signature grouping when dirty (after AddQuery/RemoveQuery
  /// or a SetSharedFinalize/SetRouteIndex flip). Coordinator-thread only —
  /// runs before a delta window fans out so shard threads read the groups
  /// immutably. Fires OnRouteGroupsRebuilt after a rebuild.
  void EnsureFinalizeGroups();

  /// Hook fired after EnsureFinalizeGroups rebuilt the grouping: engines
  /// rebuild their group-granular routing postings here (they are exactly as
  /// stale as the groups). Coordinator-thread only. Default: nothing.
  virtual void OnRouteGroupsRebuilt() {}

  /// The signature groups, dense by FinalizeGroup::id (routing targets).
  /// Valid after EnsureFinalizeGroups until the next query-set change.
  const std::vector<std::unique_ptr<FinalizeGroup>>& finalize_groups() const {
    return finalize_groups_;
  }

  /// `qid`'s signature group, or nullptr (never null once routing
  /// materializes all-query groups and the grouping is clean).
  const FinalizeGroup* GroupOf(QueryId qid) const {
    auto it = group_of_query_.find(qid);
    return it == group_of_query_.end() ? nullptr : it->second;
  }

  bool route_enabled() const { return route_enabled_; }
  bool shared_finalize_enabled() const { return shared_finalize_enabled_; }

  /// True when `g`'s finalize evaluation may be fanned out across members:
  /// sharing is on, the signature did not opt out, and there is someone to
  /// share with. Routed finalize paths branch on this; the memo path below
  /// applies the same test.
  bool GroupSharingApplies(const FinalizeGroup& g) const {
    return shared_finalize_enabled_ && g.shareable && g.members.size() >= 2;
  }

  /// The memo slot of `qid`'s group in this window, or nullptr when sharing
  /// does not apply (disabled, unshareable signature, or singleton group).
  SharedFinalizeMemo* SharedMemoFor(QueryId qid, WindowContext& ctx) const;

  /// Member count of `qid`'s signature group, 1 when sharing does not apply:
  /// the touch weight a shared finalize pass carries into the window join
  /// cache (see JoinIndexSource::Get's weighted overload).
  uint32_t SharedGroupSize(QueryId qid) const {
    auto it = group_of_query_.find(qid);
    return it == group_of_query_.end() || !GroupSharingApplies(*it->second)
               ? 1u
               : static_cast<uint32_t>(it->second->members.size());
  }

  /// Counts one group-level finalize pass that served >= 2 members (the
  /// routed fan-out's equivalent of NoteSharedServed's first-replay count).
  void NoteSharedGroupPass() {
    shared_finalize_groups_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Counts `n` candidate work items the routing layer handed to evaluation
  /// (per-query/per-path candidates on the legacy path, group/node-path
  /// candidates on the routed path). Thread-safe (shards report
  /// concurrently).
  void NoteRoutedCandidates(uint64_t n) {
    if (n != 0) routed_candidates_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Counts one streamed update rejected by the O(words) routing prefilter.
  void NotePrefilterReject() {
    prefilter_rejects_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Counts `memo`'s pass as shared (first fan-out only): the memoized
  /// evaluation just served a second query.
  void NoteSharedServed(SharedFinalizeMemo& memo) {
    if (memo.shared_counted) return;
    memo.shared_counted = true;
    shared_finalize_groups_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Replays a memoized group evaluation for `qid`: counts the fan-out and
  /// scatters a copy of the memo's tags onto the window results. Call only
  /// after matching `memo.runtime_key`.
  void ReplaySharedTags(SharedFinalizeMemo& memo, QueryId qid,
                        UpdateResult* window_results) {
    if (memo.pass_ran) NoteSharedServed(memo);
    std::vector<uint32_t> tags = memo.tags;
    ScatterTagCounts(tags, qid, window_results);
  }

  /// Canonical encoding of the filter half of a finalize signature: the
  /// assignment arity and the §4.3 property constraints. Shared by every
  /// engine's EncodeFinalizeSignature so the filter spec cannot diverge.
  static void AppendFilterSignature(const QueryPattern& q, std::vector<uint64_t>& out);

  /// Scatters one query's finalize output back onto the per-update results:
  /// sorts `tags` (1-based window positions, one per new assignment) and
  /// adds one AddQueryCount per distinct position to its result slot.
  /// Consumes `tags`. Shared by every engine's FinalizeWindow so the
  /// attribution logic cannot diverge between families.
  static void ScatterTagCounts(std::vector<uint32_t>& tags, QueryId qid,
                               UpdateResult* window_results);
  /// Element ids of one insert's read/write footprint. The three namespaces
  /// share one id space via a 2-bit tag in the low bits.
  using Footprint = std::vector<uint64_t>;
  static uint64_t PatternElem(uint32_t pattern_id) {
    return (static_cast<uint64_t>(pattern_id) << 2) | 0;
  }
  static uint64_t NodeElem(uint64_t node_seq) { return (node_seq << 2) | 1; }
  static uint64_t QueryElem(QueryId qid) {
    return (static_cast<uint64_t>(qid) << 2) | 2;
  }

  /// Appends every element the processing of insert `u` may read or write.
  /// Must over-approximate (a missed element breaks exactness). The default
  /// implementation concatenates the precomputed per-pattern reaches of
  /// `u`'s ≤4 generalizations (lazily rebuilt via BuildPatternReach after
  /// AddQuery — the routing indexes are immutable while updates stream, so
  /// reaches are stable across a window); engines whose reach is not
  /// pattern-local may override — and must then also set
  /// `footprint_pattern_local_ = false`, because the window partition cache
  /// keys on exactly the default implementation's inputs (the matched
  /// registered pattern ids). Returning false marks the update
  /// non-shardable; its window falls back to sequential execution.
  virtual bool CollectFootprint(const EdgeUpdate& u, Footprint& out);

  /// Rebuilds `pattern_reach_` (via BuildPatternReach) when dirty.
  /// Coordinator-thread only.
  void EnsureReach();

  /// Fills `pattern_reach_`: for every *registered* genericized pattern,
  /// every element an insert matching that pattern can read or write
  /// (patterns absent from the map are unregistered — no base view, no
  /// index entries — and contribute nothing).
  virtual void BuildPatternReach() = 0;

  /// Invalidate (and release) the per-pattern reaches — call from
  /// AddQueryImpl/RemoveQueryImpl; CollectFootprint rebuilds lazily. Doubles
  /// as the shared-finalize invalidation hook: the signature grouping is
  /// exactly as stale as the reaches (both are pure functions of the live
  /// query set), so one dirty mark covers both.
  void MarkReachDirty() {
    reach_dirty_ = true;
    pattern_reach_.clear();
    finalize_groups_dirty_ = true;
    // The cached window partitions are keyed on pattern ids whose reaches
    // just changed (and whose ids may recycle) — exactly as stale as the
    // reaches themselves.
    partition_cache_.clear();
  }

  /// The insert path of `ApplyUpdate` *after* the duplicate check. Must be
  /// safe to run concurrently with other footprint-disjoint inserts; the
  /// coordinator clears the budget before fanning out, so implementations
  /// never observe a budget mid-shard.
  virtual UpdateResult ProcessInsert(const EdgeUpdate& u) = 0;

  /// Opt-in (engine constructor) for the base algorithms: inside a batch
  /// window, `window_cache()` returns a transient WindowJoinCache that
  /// amortizes repeated join builds across the window's updates (results
  /// are unchanged — an indexed equi-join emits exactly the scan join's
  /// rows). Outside batch windows it stays null, preserving the sequential
  /// base-engine cost model.
  void EnableWindowCache() { window_cache_enabled_ = true; }
  WindowJoinCache* window_cache() const { return window_cache_.get(); }

  /// Stable small id for a genericized edge pattern (footprint elements).
  /// Coordinator-thread only.
  uint32_t PatternId(const GenericEdgePattern& p) {
    uint32_t& id = pattern_ids_.GetOrCreate(p);
    if (id == 0) id = ++next_pattern_id_;
    return id;
  }

  /// Read-only PatternId lookup (0 = never interned). Safe from pool
  /// threads; pair with a PrepareFinalizeSignatures pre-intern so the id is
  /// always present when it matters.
  uint32_t PatternIdIfKnown(const GenericEdgePattern& p) const {
    const uint32_t* id = pattern_ids_.Find(p);
    return id == nullptr ? 0 : *id;
  }

  /// The base view for `p`, created empty on first use (at query indexing).
  Relation* GetOrCreateBaseView(const GenericEdgePattern& p);

  /// The base view for `p`, or nullptr when no query uses this pattern.
  Relation* FindBaseView(const GenericEdgePattern& p) const;

  /// Query-lifecycle reference counting over the shared base views: each
  /// registered query holds one reference per pattern occurrence it indexed
  /// (engines choose the granularity — per signature element for TRIC, per
  /// distinct edge pattern for INV/INC — and must release symmetrically).
  /// `RefBaseView` creates the view on first use; `UnrefBaseView` destroys
  /// it when the last reference goes, after announcing the doomed relation
  /// through `OnRelationEvicted` so engines drop dependent cached indexes.
  Relation* RefBaseView(const GenericEdgePattern& p);
  void UnrefBaseView(const GenericEdgePattern& p);

  /// Hook: `rel` (a shared base view, until now reachable through
  /// FindBaseView) is about to be destroyed by the lifecycle GC. Engines
  /// owning a JoinCache evict its indexes here. Default: nothing.
  virtual void OnRelationEvicted(const Relation* rel) { (void)rel; }

  /// Hook: row `row` of `rel` (a shared base or prefix view) is about to be
  /// erased in place by EraseViewRow — the last row moves into its slot.
  /// Engines owning a JoinCache patch its indexes over `rel` here
  /// (JoinCache::PatchErase), so deletions never force an index rebuild.
  /// Default: nothing.
  virtual void OnRowErase(const Relation* rel, size_t row) {
    (void)rel;
    (void)row;
  }

  /// Erases the row equal to `row` (present) from `rel` in place,
  /// announcing it through OnRowErase first.
  void EraseViewRow(Relation* rel, const VertexId* row);

  /// Erases row `i` of `rel` in place, announcing it through OnRowErase
  /// first.
  void EraseViewRowAt(Relation* rel, size_t i) {
    OnRowErase(rel, i);
    rel->Erase(i);
  }

  /// Releases tombstoned/slack capacity of the shared routing structures
  /// after a removal (pattern-id table today). Engines call it at the end
  /// of RemoveQueryImpl, after compacting their own indexes.
  void CompactSharedState();

  /// Records `u` into every existing base view whose pattern it satisfies
  /// (up to the 4 generalizations). With a non-null `ctx` (delta windows)
  /// each touched view is checkpointed at `ctx->position` first, so the
  /// appended rows carry the right window tags.
  void AppendToBaseViews(const EdgeUpdate& u, WindowContext* ctx = nullptr);

  /// Retracts `u`'s tuple from every matching base view — one in-place
  /// row erase each — and forgets the edge (paper §4.3 deletions). Returns
  /// false when the edge was absent.
  bool RemoveFromBaseViews(const EdgeUpdate& u);

  /// The base-view half of RemoveFromBaseViews, for an edge the caller has
  /// already removed from the seen-edge set (the mixed-window pre-pass).
  void EraseFromBaseViews(const EdgeUpdate& u);

  /// Returns true (and remembers the edge) when `u` was already applied.
  bool IsDuplicateUpdate(const EdgeUpdate& u);

  /// Tracks the largest transient join scratch seen in one update.
  /// Thread-safe (shards report concurrently).
  void NotePeakTransient(size_t bytes) {
    size_t cur = peak_transient_bytes_.load(std::memory_order_relaxed);
    while (bytes > cur && !peak_transient_bytes_.compare_exchange_weak(
                              cur, bytes, std::memory_order_relaxed)) {
    }
  }

  /// Bytes of base views + seen-edge set + transient high-water mark.
  size_t SharedMemoryBytes() const;

  std::unordered_map<GenericEdgePattern, std::unique_ptr<Relation>,
                     GenericEdgePatternHash>
      base_views_;
  /// Live query references per base-view pattern (see RefBaseView).
  std::unordered_map<GenericEdgePattern, uint32_t, GenericEdgePatternHash>
      base_view_refs_;
  std::unordered_set<EdgeUpdate, EdgeKeyHash, EdgeKeyEq> seen_edges_;
  std::atomic<size_t> peak_transient_bytes_{0};
  /// Work-stealing batch scheduler; non-null after SetBatchThreads(>1).
  std::unique_ptr<TaskScheduler> sched_;
  /// Per-pattern reach aggregates; see CollectFootprint/BuildPatternReach.
  std::unordered_map<GenericEdgePattern, Footprint, GenericEdgePatternHash>
      pattern_reach_;
  /// False when a subclass overrides CollectFootprint with a reach that is
  /// not a pure function of the matched registered patterns — disables the
  /// generalization-profile partition cache (see RunWindowImpl).
  bool footprint_pattern_local_ = true;

 private:
  /// Executes one window starting at `updates[lo]` and ending at or before
  /// `hi` (a delete-free run, or for mixed windows any run — which ends
  /// early before an insert re-adding an edge the window deleted),
  /// appending one result per executed update to `results`. Returns false
  /// when the budget tripped (the window's unprocessed suffix was dropped).
  /// The outer function owns the window-cache lifecycle around the inner
  /// executor.
  bool RunWindow(const EdgeUpdate* updates, size_t lo, size_t hi,
                 std::vector<UpdateResult>& results);
  bool RunWindowImpl(const EdgeUpdate* updates, size_t lo, size_t hi,
                     std::vector<UpdateResult>& results);

  /// One memoized window partition: the footprint shards' member lists
  /// (window slot indices, ascending within and across shards). Keyed by the
  /// window's generalization profile — see RunWindowImpl.
  struct WindowPartition {
    std::vector<std::vector<uint32_t>> shard_members;
  };

  FlatMap<GenericEdgePattern, uint32_t, GenericEdgePatternHash> pattern_ids_;
  uint32_t next_pattern_id_ = 0;
  bool reach_dirty_ = true;
  /// Generalization-profile -> shard partition memo. Full-key comparison (a
  /// hash collision here would merge/split shards — a correctness bug, not a
  /// perf miss); cleared with the reaches (MarkReachDirty) and bounded by
  /// kPartitionCacheMax.
  std::map<std::vector<uint64_t>, WindowPartition> partition_cache_;
  bool window_cache_enabled_ = false;
  std::unique_ptr<WindowJoinCache> window_cache_;
  std::atomic<uint64_t> final_join_passes_{0};
  std::atomic<uint64_t> shared_finalize_groups_{0};
  std::atomic<uint64_t> routed_candidates_{0};
  std::atomic<uint64_t> prefilter_rejects_{0};
  std::atomic<uint64_t> batch_tasks_{0};
  std::atomic<uint64_t> batch_steals_{0};
  std::atomic<uint64_t> footprint_cache_hits_{0};

  /// Signature-group planner state (shared finalization + routing targets):
  /// the groups and the qid -> group index. Rebuilt by EnsureFinalizeGroups
  /// on the coordinator; immutable while a window is in flight.
  bool shared_finalize_enabled_ = true;
  bool route_enabled_ = true;
  bool finalize_groups_dirty_ = true;
  std::vector<std::unique_ptr<FinalizeGroup>> finalize_groups_;
  std::unordered_map<QueryId, const FinalizeGroup*> group_of_query_;
};

}  // namespace gstream

#endif  // GSTREAM_ENGINE_VIEW_ENGINE_BASE_H_
