#ifndef GSTREAM_INGEST_RING_BUFFER_H_
#define GSTREAM_INGEST_RING_BUFFER_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/update.h"

namespace gstream {
namespace ingest {

/// What the decode side does when the ring is full (`--overload` in the
/// CLI): block the producer (backpressure), shed the oldest queued batch
/// (keeps decoding at full rate, loses data — counted), or fail the replay.
enum class OverloadPolicy : uint8_t { kBlock = 0, kShed = 1, kFailFast = 2 };

/// One decoded record block traveling decode -> apply. `seq` is the block's
/// dense index among the file's *record* blocks — the consumer reassembles
/// stream order from it, so reader threads may finish out of order.
struct RecordBatch {
  uint64_t seq = 0;
  std::vector<EdgeUpdate> records;
  /// Quarantined block placeholder (no records): emitted under
  /// CorruptPolicy::kSkip so the consumer's in-order reassembly never stalls
  /// waiting for a block that produced nothing.
  bool corrupt = false;
};

/// Bounded MPSC ring between N decode threads and the single apply thread.
/// Mutex + two condvars: correctness and TSan-cleanliness over lock-free
/// cleverness — the batches are coarse (thousands of records), so the lock
/// is nowhere near the hot path.
class BoundedBatchRing {
 public:
  struct Stats {
    uint64_t batches_pushed = 0;
    uint64_t blocked_pushes = 0;   ///< Pushes that waited for space (kBlock).
    uint64_t batches_shed = 0;     ///< Oldest-dropped batches (kShed).
    uint64_t records_shed = 0;     ///< Records inside those batches.
    size_t max_occupancy = 0;      ///< High-water batch count.
  };

  explicit BoundedBatchRing(size_t capacity) : capacity_(capacity ? capacity : 1) {}

  enum class PushResult : uint8_t { kOk = 0, kOverflow = 1, kAborted = 2 };

  /// Producer side. kBlock waits for space; kShed drops the oldest queued
  /// batch (recording its seq + record count for the consumer's reassembly);
  /// kFailFast returns kOverflow and the pipeline aborts the run.
  PushResult Push(RecordBatch&& batch, OverloadPolicy policy) {
    std::unique_lock<std::mutex> lock(mu_);
    if (queue_.size() >= capacity_) {
      switch (policy) {
        case OverloadPolicy::kBlock:
          ++stats_.blocked_pushes;
          not_full_.wait(lock,
                         [&] { return queue_.size() < capacity_ || aborted_; });
          break;
        case OverloadPolicy::kShed: {
          RecordBatch& oldest = queue_.front();
          ++stats_.batches_shed;
          stats_.records_shed += oldest.records.size();
          shed_[oldest.seq] = oldest.records.size();
          queue_.pop_front();
          break;
        }
        case OverloadPolicy::kFailFast:
          return PushResult::kOverflow;
      }
    }
    if (aborted_) return PushResult::kAborted;
    queue_.push_back(std::move(batch));
    ++stats_.batches_pushed;
    stats_.max_occupancy = std::max(stats_.max_occupancy, queue_.size());
    not_empty_.notify_one();
    return PushResult::kOk;
  }

  /// Consumer side: pops the earliest queued batch, waiting while producers
  /// are still active. False when drained and all producers are done (or the
  /// ring was aborted).
  bool Pop(RecordBatch& out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] {
      return !queue_.empty() || producers_active_ == 0 || aborted_;
    });
    if (queue_.empty() || aborted_) return false;
    out = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return true;
  }

  enum class PopStatus : uint8_t { kGot = 0, kTimeout = 1, kDone = 2 };

  /// Timed Pop for consumers with periodic duties (the socket server's apply
  /// thread interleaves control ops and window-flush deadlines with popping):
  /// kGot with a batch, kTimeout when the wait expired — or was cut short by
  /// Wake — with producers still active, kDone when drained-and-finished or
  /// aborted. Every return consumes a pending Wake.
  PopStatus PopFor(RecordBatch& out, int timeout_millis) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait_for(lock, std::chrono::milliseconds(timeout_millis), [&] {
      return !queue_.empty() || producers_active_ == 0 || aborted_ || woken_;
    });
    woken_ = false;
    if (aborted_) return PopStatus::kDone;
    if (!queue_.empty()) {
      out = std::move(queue_.front());
      queue_.pop_front();
      not_full_.notify_one();
      return PopStatus::kGot;
    }
    return producers_active_ == 0 ? PopStatus::kDone : PopStatus::kTimeout;
  }

  /// Makes the consumer's PopFor return now (kTimeout unless a batch is
  /// ready) so it can attend to other work — the server posts a control op,
  /// then wakes the apply thread. Sticky: a Wake that lands before the
  /// PopFor cuts that PopFor short.
  void Wake() {
    std::lock_guard<std::mutex> lock(mu_);
    woken_ = true;
    not_empty_.notify_all();
  }

  /// If record-block `seq` was shed, removes the note and returns its record
  /// count; -1 when it was not shed. Consumer-side, during reassembly.
  int64_t TakeShed(uint64_t seq) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = shed_.find(seq);
    if (it == shed_.end()) return -1;
    const int64_t n = static_cast<int64_t>(it->second);
    shed_.erase(it);
    return n;
  }

  void AddProducer() {
    std::lock_guard<std::mutex> lock(mu_);
    ++producers_active_;
  }

  void ProducerDone() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--producers_active_ == 0) not_empty_.notify_all();
  }

  /// Fail-fast / error path: wakes everyone; further pushes and pops fail.
  void Abort() {
    std::lock_guard<std::mutex> lock(mu_);
    aborted_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool aborted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return aborted_;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<RecordBatch> queue_;
  std::unordered_map<uint64_t, size_t> shed_;  ///< seq -> shed record count.
  size_t producers_active_ = 0;
  bool aborted_ = false;
  bool woken_ = false;  ///< A Wake no PopFor has consumed yet.
  Stats stats_;
};

}  // namespace ingest
}  // namespace gstream

#endif  // GSTREAM_INGEST_RING_BUFFER_H_
