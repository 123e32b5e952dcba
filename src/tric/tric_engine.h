#ifndef GSTREAM_TRIC_TRIC_ENGINE_H_
#define GSTREAM_TRIC_TRIC_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/view_engine_base.h"
#include "matview/binding.h"
#include "matview/join_cache.h"
#include "query/path_cover.h"
#include "tric/trie.h"

namespace gstream {
namespace tric {

/// TRIC — TRIe-based Clustering (paper §4), the system's primary
/// contribution, plus its caching extension TRIC+ (§4.2 "Caching").
///
/// Indexing phase (§4.1): each query is decomposed into covering paths
/// (Definition 4.2); the genericized paths are inserted into a trie forest so
/// queries with common structural/attribute restrictions share both trie
/// nodes and the per-node materialized prefix views.
///
/// Answering phase (§4.2): an update is routed through the node-granular
/// `edgeInd` to the trie nodes storing a matching pattern. Each matching
/// node joins its parent's prefix view with the single update tuple (never a
/// full view-by-view join) and the resulting delta cascades down the
/// sub-trie, pruning branches whose delta is empty. Matching nodes are
/// processed top-down so repeated patterns along one trie path (BioGRID-style
/// chains) stay exact; set-semantics views absorb re-derivations. Queries
/// whose covering paths received delta rows are then finalized by joining the
/// affected paths' deltas against the other paths' full views on the shared
/// original-query vertices recorded at indexing time (§4.1 "Variable
/// Handling").
///
/// TRIC+ passes a `JoinCache` so every hash table built for a join is kept
/// and maintained incrementally instead of rebuilt per operation.
class TricEngine : public ViewEngineBase {
 public:
  /// Engine variants. Beyond the paper's TRIC/TRIC+ pair, two ablations
  /// isolate the design choices DESIGN.md calls out:
  ///  * `clustering = false` disables trie prefix sharing — every covering
  ///    path gets a private chain of nodes and views (quantifies the gain of
  ///    §4.1 Step 2's clustering);
  ///  * `per_edge_paths = true` replaces the covering-path decomposition
  ///    with one single-edge path per query edge (quantifies the gain of
  ///    §4.1 Step 1's path covering).
  struct Options {
    bool cache = false;
    bool clustering = true;
    bool per_edge_paths = false;
  };

  /// `enable_cache` selects TRIC+ behaviour.
  explicit TricEngine(bool enable_cache)
      : TricEngine(Options{enable_cache, true, false}) {}
  explicit TricEngine(const Options& options);

  std::string name() const override;
  UpdateResult ApplyUpdate(const EdgeUpdate& u) override;
  bool HasQuery(QueryId qid) const override { return queries_.count(qid) > 0; }
  size_t NumQueries() const override { return queries_.size(); }
  size_t MemoryBytes() const override;

  /// Diagnostics for tests and the ablation bench.
  const TrieForest& forest() const { return forest_; }

 protected:
  void AddQueryImpl(QueryId qid, const QueryPattern& q) override;

  /// Query removal (paper §3.2's dynamic QDB): drops the query's path
  /// references from the trie, garbage-collects the unpinned suffix nodes
  /// and their materialized views (shared prefixes survive), evicts the
  /// dead views' cached join indexes, releases the base-view references,
  /// and compacts the routing indexes so `MemoryBytes` reflects the GC.
  void RemoveQueryImpl(QueryId qid) override;

  /// Lifecycle GC hook: a shared base view is going away — drop TRIC+'s
  /// cached indexes over it.
  void OnRelationEvicted(const Relation* rel) override;

  /// Retraction hook: a base or prefix view is about to erase a row —
  /// patch TRIC+'s cached indexes over it in place.
  void OnRowErase(const Relation* rel, size_t row) override;

  /// Batch sharding (ViewEngineBase): a pattern's reach is its matching trie
  /// nodes, everything below them (cascades write those views and read their
  /// base views), the parents they join against, and the queries they can
  /// finalize (whose *other* covering-path terminals the final join reads).
  void BuildPatternReach() override;
  UpdateResult ProcessInsert(const EdgeUpdate& u) override;

  /// Window-delta pipeline (DESIGN.md §7): maintenance routes + cascades per
  /// update (checkpointing touched node views), FinalizeWindow runs one
  /// tagged final-join pass per (query, window) over the accumulated
  /// terminal deltas — one per (signature group, window) under shared
  /// finalization (§9).
  bool SupportsWindowDelta() const override { return true; }
  std::unique_ptr<WindowContext> NewWindowContext() override;
  void ProcessInsertDelta(const EdgeUpdate& u, WindowContext& ctx,
                          UpdateResult& result) override;
  void FinalizeWindow(WindowContext& ctx, UpdateResult* window_results) override;

  /// Mixed insert/delete windows (DESIGN.md §16): a deletion inside a window
  /// runs the retraction cascade against the state at its position, erases
  /// the base views at once (final joins never read them) and retires the
  /// doomed node-view rows in the window's log. Later inserts and deletions
  /// skip retired parent rows, the final join drops assignments holding a
  /// row retired at or before the assignment's tag, and EraseRetired
  /// erases the retired rows after FinalizeWindow.
  bool SupportsMixedWindows() const override { return true; }
  void ProcessDeleteDelta(const EdgeUpdate& u, WindowContext& ctx,
                          UpdateResult& result) override;
  void EraseRetired(WindowContext& ctx) override;

  /// Shared-finalize signature (DESIGN.md §9): per covering path the shared
  /// terminal node (clustering maps signature-equal paths to one node, so
  /// the node id names the ordered prefix-view chain) and the path-position
  /// -> query-vertex map (the binding spec), plus the filter spec. Queries
  /// with equal encodings join the same terminal views with the same
  /// schemas and constraints.
  bool EncodeFinalizeSignature(QueryId qid, std::vector<uint64_t>& out) override;
  void ListQueryIds(std::vector<QueryId>& out) const override;

  /// Rebuilds the terminal-node routing annotations (DESIGN.md §12): each
  /// group's representative stamps its terminals with (group id, path index)
  /// pairs, so FinalizeWindow expands affected terminals straight into
  /// affected groups. Stamp-validated — no per-node cleanup on rebuild.
  void OnRouteGroupsRebuilt() override;

 private:
  struct PathInfo {
    TrieNode* terminal = nullptr;
    std::vector<uint32_t> pos_to_vertex;  ///< Path position -> query vertex.
    PathBindingSpec spec;
    /// For cyclic paths (repeated vertices): the incrementally maintained
    /// filtered+projected copy of the terminal view, schema = spec.schema.
    std::unique_ptr<Relation> filtered;
    size_t filtered_upto = 0;
  };

  struct QueryEntry {
    QueryPattern pattern;
    std::vector<PathInfo> paths;
  };

  /// Shard-local window context: the affected terminals accumulated across
  /// the window (deduplicated via TrieNode::window_affected_epoch against
  /// `window_epoch`), and the node-view rows the window's deletions retired.
  struct TricWindowContext : WindowContext {
    uint64_t window_epoch = 0;
    std::vector<TrieNode*> affected_terminals;
    RetiredRowLog retired;
    std::vector<TrieNode*> retired_nodes;  ///< Nodes with retired rows.
  };

  /// Per-update delta scratch: the epoch stamping node delta windows and the
  /// affected-terminal set. One instance per in-flight update, so
  /// footprint-disjoint batch shards can process updates concurrently.
  struct DeltaScratch {
    uint64_t epoch = 0;
    std::vector<TrieNode*> affected_terminals;
    /// Non-null on the delta path: touched node views are checkpointed at
    /// the context's current window position, and the parent rows its
    /// deletions retired are skipped.
    TricWindowContext* wctx = nullptr;
  };

  /// Allocates a freshly created trie node's view and backfills it from its
  /// parent's view (best-effort for queries registered mid-stream).
  void InitNodeView(TrieNode* node);

  /// Joins `node`'s parent view (or the update itself at roots) with `u`,
  /// appends the delta and cascades it down the sub-trie.
  void ProcessMatchingNode(TrieNode* node, const EdgeUpdate& u, DeltaScratch& ds);

  /// Extends rows [lo, hi) of `node`'s view into each child via the child's
  /// base edge view; recurses while deltas are non-empty.
  void Cascade(TrieNode* node, size_t lo, size_t hi, DeltaScratch& ds);

  /// Lazily stamps the node's delta window for the scratch's epoch.
  void EnsureEpoch(TrieNode* node, const DeltaScratch& ds);

  /// Window-delta bookkeeping after a node's view grew from `rows_before`:
  /// checkpoints terminal views at the context's current position.
  void NoteWindowGrowth(TrieNode* node, size_t rows_before, const DeltaScratch& ds);

  /// Registers `node` in the per-update affected set when it terminates
  /// covering paths.
  void MarkAffected(TrieNode* node, DeltaScratch& ds);

  /// After rows of `node`'s view were erased: resets the cyclic projections
  /// mirroring it by row index.
  void AfterRowsErased(TrieNode* node);

  /// Catches `info.filtered` up with its terminal view; returns the full
  /// binding range + schema of the path (view-backed when acyclic).
  RowRange FullPathRange(PathInfo& info);
  const std::vector<uint32_t>& PathSchema(const PathInfo& info) const;

  /// FullPathRange plus the rows' window tags (checkpointing `filtered`
  /// rows as they are caught up, so cyclic paths tag correctly too).
  std::pair<RowRange, RowTags> FullPathRangeTagged(PathInfo& info,
                                                   TricWindowContext& wctx);

  /// Routing (paper Fig. 8 lines 1-7): resolves the matching trie nodes for
  /// `u`, top-down, and processes each. Returns false on a budget trip
  /// (`result.timed_out` is set).
  bool RouteUpdate(const EdgeUpdate& u, DeltaScratch& ds, UpdateResult& result);

  /// Appends the trie nodes whose pattern `u` satisfies, top-down (depth,
  /// then creation order) — the processing order of inserts and deletions.
  void MatchingNodes(const EdgeUpdate& u, std::vector<TrieNode*>& out) const;

  /// Per-query final join (paper Fig. 8 lines 8-13, delta-seeded).
  void FinalizeQueries(UpdateResult& result, DeltaScratch& ds);

  /// One tagged whole-window final join of `entry` seeded from the covering
  /// paths in `path_idxs` (the shared body of the legacy and routed
  /// FinalizeWindow paths). `pass_ran` is false when the feasibility gate
  /// skipped the evaluation. Returns false on a budget abort (the caller
  /// must end the finalize).
  bool EvaluateWindowTagged(QueryEntry& entry,
                            const std::vector<uint32_t>& path_idxs,
                            TricWindowContext& wctx, uint32_t probe_weight,
                            bool& pass_ran, std::vector<uint32_t>& tags);

  /// Routed finalize (DESIGN.md §12): expands the affected terminals into
  /// (signature group, path idx) pairs via the stamped annotations and runs
  /// one evaluation per group, fanning tags out to every member.
  void FinalizeWindowRouted(TricWindowContext& wctx, UpdateResult* window_results);

  /// The rows one deletion retracts, per trie node, in discovery order
  /// (top-down), each node's doomed rows deduplicated by value.
  struct Retraction {
    std::vector<std::pair<TrieNode*, std::unique_ptr<Relation>>> doomed;
    std::unordered_map<const TrieNode*, Relation*> by_node;

    /// `node`'s doomed rows (arity of its view), created empty on first use.
    Relation& RowsOf(TrieNode* node);
  };

  /// Edge deletion (paper §4.3), the insert cascade's mirror image: at each
  /// trie node matching `u`, the rows using the edge at that depth are the
  /// parent's rows ending in `u.src` extended by `u.dst`; their descendants
  /// are their extensions through the children's base views. Every doomed
  /// row is collected against the pre-delete views first, then the base
  /// views and the doomed rows are erased in place, so a deletion costs the
  /// rows it removes. Exact because a view row's edge instances are fully
  /// determined by its vertex sequence. Returns false when `u` was absent.
  bool HandleDelete(const EdgeUpdate& u);

  /// Collects the rows deleting `u` retracts, against the current state;
  /// parent rows in `retired` (when non-null) are already dead and skipped.
  void CollectRetraction(const EdgeUpdate& u, const RetiredRowLog* retired,
                         Retraction& retraction);
  void RetractMatchingNode(TrieNode* node, const EdgeUpdate& u,
                           const RetiredRowLog* retired, Retraction& retraction);
  void RetractCascade(TrieNode* node, size_t lo, Retraction& retraction);

  bool cache_enabled() const { return cache_ != nullptr; }

  /// Maintained index over `rel` column `col`: TRIC+'s persistent JoinCache,
  /// or — inside a batch window for plain TRIC — the transient window cache
  /// (null on its first touch of a view, so single-touch joins keep the
  /// paper's scan plan). Null otherwise. `touch_weight` > 1 marks a shared
  /// finalize probe standing in for that many per-query probes (§9).
  HashIndex* JoinIndexFor(const Relation* rel, uint32_t col,
                          uint32_t touch_weight = 1) {
    if (cache_ != nullptr) return cache_->Get(rel, col);
    WindowJoinCache* wc = window_cache();
    return wc != nullptr ? wc->Get(rel, col, touch_weight) : nullptr;
  }

  Options options_;
  TrieForest forest_;
  std::unordered_map<QueryId, QueryEntry> queries_;
  std::unique_ptr<JoinCache> cache_;  ///< Non-null for TRIC+.

  /// Epoch allocator; atomic so concurrent batch shards draw unique epochs.
  std::atomic<uint64_t> epoch_{0};

  /// Validity stamp of the TrieNode::route_groups annotations: a node's list
  /// is meaningful only when its route_stamp matches. Bumped on every
  /// grouping rebuild, so stale annotations expire without a trie walk.
  uint64_t route_stamp_ = 0;
};

}  // namespace tric
}  // namespace gstream

#endif  // GSTREAM_TRIC_TRIC_ENGINE_H_
