#ifndef GSTREAM_ENGINE_SEEN_EDGE_SET_H_
#define GSTREAM_ENGINE_SEEN_EDGE_SET_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "graph/update.h"

namespace gstream {

/// The live edge set of a view engine (set semantics: duplicate inserts and
/// deletions of absent edges are no-ops), bucketed by label. A base view
/// first referenced mid-stream backfills from its own label's bucket, so
/// registering a query costs the live edges of its labels, not of the whole
/// graph. A label with no live edge has no bucket: its last erase drops it.
class SeenEdgeSet {
 public:
  /// Adds `e`; false when it was already present.
  bool Insert(const EdgeUpdate& e) {
    return buckets_[e.label].insert(Ends(e)).second;
  }

  /// Removes `e`; false when it was absent.
  bool Erase(const EdgeUpdate& e) {
    auto it = buckets_.find(e.label);
    if (it == buckets_.end() || it->second.erase(Ends(e)) == 0) return false;
    if (it->second.empty()) buckets_.erase(it);
    return true;
  }

  bool Contains(const EdgeUpdate& e) const {
    auto it = buckets_.find(e.label);
    return it != buckets_.end() && it->second.count(Ends(e)) > 0;
  }

  bool empty() const { return buckets_.empty(); }

  /// Calls `fn(src, dst)` for every live edge labelled `label`.
  template <typename Fn>
  void ForEachWithLabel(LabelId label, Fn&& fn) const {
    auto it = buckets_.find(label);
    if (it == buckets_.end()) return;
    for (uint64_t ends : it->second)
      fn(static_cast<VertexId>(ends >> 32), static_cast<VertexId>(ends));
  }

  /// Calls `fn(src, label, dst)` for every live edge.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [label, bucket] : buckets_)
      for (uint64_t ends : bucket)
        fn(static_cast<VertexId>(ends >> 32), label, static_cast<VertexId>(ends));
  }

  /// Node-container estimate: one node (value + next pointer) per edge and
  /// per label, plus the bucket arrays.
  size_t MemoryBytes() const {
    size_t bytes = buckets_.bucket_count() * sizeof(void*);
    for (const auto& [label, bucket] : buckets_)
      bytes += sizeof(label) + sizeof(bucket) + sizeof(void*) +
               bucket.size() * (sizeof(uint64_t) + sizeof(void*)) +
               bucket.bucket_count() * sizeof(void*);
    return bytes;
  }

 private:
  struct EndsHash {
    size_t operator()(uint64_t ends) const noexcept { return Mix64(ends); }
  };
  using Bucket = std::unordered_set<uint64_t, EndsHash>;

  /// (src, dst) packed into one key; the bucket fixes the label.
  static uint64_t Ends(const EdgeUpdate& e) {
    return (static_cast<uint64_t>(e.src) << 32) | e.dst;
  }

  std::unordered_map<LabelId, Bucket> buckets_;
};

}  // namespace gstream

#endif  // GSTREAM_ENGINE_SEEN_EDGE_SET_H_
