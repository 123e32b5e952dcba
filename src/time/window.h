#ifndef GSTREAM_TIME_WINDOW_H_
#define GSTREAM_TIME_WINDOW_H_

#include <cstdint>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/update.h"

namespace gstream {
namespace temporal {

/// Expiry policy of a WindowManager. The engines never see a policy — every
/// policy reduces to the same mechanism, batched internal deletions spliced
/// into the update stream at deterministic positions (DESIGN.md §13).
enum class WindowPolicy : uint8_t {
  kNone = 0,      ///< No expiry; the manager is a pass-through.
  kTime = 1,      ///< Sliding event-time window: expire when watermark >= ts + width.
  kCount = 2,     ///< Count window: at most `width` live edges, FIFO eviction.
  kLabelTtl = 3,  ///< Per-label TTL; `width` is the default for unlisted labels.
};

const char* WindowPolicyName(WindowPolicy policy);

/// Parses a policy name ("none", "time", "count", "label-ttl"); false on an
/// unknown name. Shared by the CLI / server / bench flag parsers.
bool ParseWindowPolicy(const std::string& name, WindowPolicy* out);

/// Window configuration, carried end-to-end: CLI / bench flags →
/// IngestOptions / ServerOptions → WindowManager. Wire and snapshot
/// encodings serialize only (policy, width); label TTLs are process-local
/// configuration.
struct WindowConfig {
  WindowPolicy policy = WindowPolicy::kNone;

  /// kTime: window width in event-time units. kCount: max live edges.
  /// kLabelTtl: default TTL for labels without an override.
  uint64_t width = 0;

  /// kLabelTtl only: per-label TTL overrides.
  std::vector<std::pair<LabelId, uint64_t>> label_ttls;

  bool enabled() const { return policy != WindowPolicy::kNone; }
};

/// Empty string when valid, else a diagnostic.
std::string ValidateWindowConfig(const WindowConfig& config);

/// Tracks the live-edge horizon of a timestamped stream and converts expiry
/// into explicit `kDelete` updates. Purely event-time driven (the watermark
/// is the max observed `ts`, never wall clock), so a replay of the same
/// stream expires identically — which is what makes snapshot recovery a
/// plain fast-forward re-execution and the expiry-vs-explicit-deletes oracle
/// byte-identical by construction.
///
/// Single-threaded: owned by whichever apply loop feeds the engine (driver,
/// ingest pipeline, or server apply thread).
class WindowManager {
 public:
  explicit WindowManager(const WindowConfig& config);

  /// Observes one incoming stream update *before* it is applied and appends
  /// the internal deletions that must apply ahead of it to `out` (oldest
  /// first). Returns the number of deletions appended. The caller applies
  /// `out` then `u`; because ApplyBatch results equal sequential execution
  /// whether a deletion is a window barrier (INV/INC families) or runs
  /// inside a mixed window (TRIC/TRIC+), splicing them at these positions is
  /// byte-identical to an explicit-deletion stream at any batch size.
  size_t Advance(const EdgeUpdate& u, std::vector<EdgeUpdate>& out);

  /// Accounting invariant: ingested == live + expired + removed.
  uint64_t ingested_edges() const { return ingested_edges_; }
  uint64_t expired_edges() const { return expired_edges_; }
  uint64_t removed_edges() const { return removed_edges_; }
  uint64_t expiry_batches() const { return expiry_batches_; }
  uint64_t live_edges() const { return live_.size(); }
  uint64_t watermark() const { return watermark_; }

  const WindowConfig& config() const { return config_; }

 private:
  struct LiveEntry {
    uint64_t key = 0;  ///< Expiry time (time policies) or insertion seq (count).
    uint64_t seq = 0;  ///< Monotonic insertion/refresh sequence.
  };
  struct HeapEntry {
    uint64_t key = 0;
    uint64_t seq = 0;
    EdgeUpdate edge;
    bool operator>(const HeapEntry& o) const {
      return key != o.key ? key > o.key : seq > o.seq;
    }
  };

  uint64_t TtlFor(LabelId label) const;
  /// Pops heap entries no longer matching the live map (refreshed or
  /// explicitly deleted edges leave stale heap entries behind).
  bool PopStale();
  void EmitExpiry(const HeapEntry& top, std::vector<EdgeUpdate>& out);

  WindowConfig config_;
  std::unordered_map<LabelId, uint64_t> label_ttl_;
  std::unordered_map<EdgeUpdate, LiveEntry, EdgeKeyHash, EdgeKeyEq> live_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<HeapEntry>>
      heap_;
  uint64_t watermark_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t ingested_edges_ = 0;
  uint64_t expired_edges_ = 0;
  uint64_t removed_edges_ = 0;
  uint64_t expiry_batches_ = 0;
};

}  // namespace temporal
}  // namespace gstream

#endif  // GSTREAM_TIME_WINDOW_H_
