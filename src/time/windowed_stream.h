#ifndef GSTREAM_TIME_WINDOWED_STREAM_H_
#define GSTREAM_TIME_WINDOWED_STREAM_H_

#include <cstdint>
#include <vector>

#include "engine/driver.h"
#include "time/window.h"

namespace gstream {
namespace temporal {

/// An event stream with its temporal semantics made explicit: every window
/// expiry is a synthetic `kDelete` update and every query-TTL expiry a
/// synthetic `kRemoveQuery` event, spliced at the exact positions the
/// windowed runner retires them. `synthetic[i]` marks the spliced events, so
/// callers can project results back onto the original stream.
struct ExpiryOracle {
  std::vector<StreamEvent> events;
  std::vector<uint8_t> synthetic;

  /// Temporal accounting of the materialization (final WindowManager state).
  uint64_t ingested_edges = 0;
  uint64_t expired_edges = 0;
  uint64_t removed_edges = 0;
  uint64_t expiry_batches = 0;
  uint64_t expired_queries = 0;
  uint64_t live_edges = 0;
  uint64_t watermark = 0;
};

/// Expands `events` under `config` into the equivalent explicit stream.
/// Pure stream → stream: expiry decisions depend only on timestamps (the
/// event-time watermark), never on engine state, which is what makes the
/// windowed runner and this oracle agree by construction — and windowed
/// replay deterministic across restarts. With `WindowPolicy::kNone` and no
/// query TTLs this is the identity.
///
/// Splice order ahead of each update `u`: (1) the TTL'd-query removal wave
/// due at `u.ts` (a batch barrier — engines forbid lifecycle calls mid
/// batch), (2) the edge-expiry deletions due at `u.ts` (in-window: ApplyBatch
/// keeps deletions exact whether they are barriers or, for TRIC/TRIC+, run
/// inside mixed windows — DESIGN.md §16), then (3) `u` itself.
ExpiryOracle MaterializeExpiryOracle(const std::vector<StreamEvent>& events,
                                     const WindowConfig& config);

/// MixedRunStats plus the temporal accounting the benches and CLI report.
/// `mixed.updates_applied` counts every engine-applied op *including*
/// synthetic expiry deletions (it is the ResultAccumulator convention);
/// `expired_edges` separates the synthetic share out, so
/// `ingested_edges == live_edges + expired_edges + removed_edges` always.
struct WindowedRunStats {
  MixedRunStats mixed;
  uint64_t ingested_edges = 0;
  uint64_t expired_edges = 0;
  uint64_t removed_edges = 0;
  uint64_t expiry_batches = 0;
  uint64_t expired_queries = 0;
  uint64_t live_edges = 0;
  uint64_t watermark = 0;
};

/// Drives `events` through `engine` with sliding-window expiry and TTL'd
/// queries: materializes the expiry oracle, then executes the expanded
/// stream exactly as RunMixedStream would (consecutive updates batched into
/// `config.batch_window` windows, query events as barriers), with `sink`
/// observing every per-update result. A run under `WindowPolicy::kNone` on
/// a pre-expanded stream is therefore the explicit-deletion oracle itself —
/// the equality the window tests assert.
WindowedRunStats RunWindowedStream(ContinuousEngine& engine,
                                   const std::vector<StreamEvent>& events,
                                   const WindowConfig& window,
                                   const RunConfig& config = {},
                                   ResultAccumulator::Sink sink = nullptr);

}  // namespace temporal
}  // namespace gstream

#endif  // GSTREAM_TIME_WINDOWED_STREAM_H_
