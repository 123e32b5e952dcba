#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ingest/pipeline.h"
#include "ingest/ring_buffer.h"

namespace gstream {
namespace ingest {
namespace {

/// BoundedBatchRing multi-producer stress + the PopFor/overload contracts
/// the socket server's apply loop depends on. TSan runs this file: the whole
/// point is N producer threads hammering a tiny ring while one consumer
/// reassembles — any missing synchronization in the ring shows up here.

/// One producer's batches carry seqs p, p+P, p+2P, ... so the consumer can
/// attribute every record back to its producer; each record's src encodes
/// (producer, position) for the in-order reassembly check.
void ProducerThread(BoundedBatchRing& ring, OverloadPolicy policy,
                    uint32_t producer, uint32_t num_producers,
                    uint32_t batches, uint32_t records_per_batch) {
  for (uint32_t b = 0; b < batches; ++b) {
    RecordBatch batch;
    batch.seq = producer + static_cast<uint64_t>(b) * num_producers;
    for (uint32_t r = 0; r < records_per_batch; ++r) {
      EdgeUpdate u;
      u.src = producer;
      u.label = 0;
      u.dst = b * records_per_batch + r;  // position within this producer
      batch.records.push_back(u);
    }
    const auto res = ring.Push(std::move(batch), policy);
    if (res == BoundedBatchRing::PushResult::kAborted) return;
    ASSERT_NE(res, BoundedBatchRing::PushResult::kOverflow);
  }
  ring.ProducerDone();
}

struct ConsumedTotals {
  uint64_t applied_records = 0;
  uint64_t shed_records = 0;
  std::map<uint32_t, std::vector<uint32_t>> per_producer;  // positions seen
};

/// Drains the ring with the server-style reassembly: batches arrive in any
/// order; dense seq order is reconstructed, consulting TakeShed for holes.
ConsumedTotals Consume(BoundedBatchRing& ring, uint64_t total_batches) {
  ConsumedTotals totals;
  std::map<uint64_t, RecordBatch> pending;
  uint64_t next_seq = 0;
  bool done = false;
  while (!done || !pending.empty()) {
    if (!done) {
      RecordBatch batch;
      const auto st = ring.PopFor(batch, 50);
      if (st == BoundedBatchRing::PopStatus::kGot) {
        pending.emplace(batch.seq, std::move(batch));
      } else if (st == BoundedBatchRing::PopStatus::kDone) {
        done = true;
      }
    }
    for (;;) {
      auto it = pending.find(next_seq);
      if (it != pending.end()) {
        for (const EdgeUpdate& u : it->second.records)
          totals.per_producer[u.src].push_back(u.dst);
        totals.applied_records += it->second.records.size();
        pending.erase(it);
        ++next_seq;
        continue;
      }
      const int64_t shed = ring.TakeShed(next_seq);
      if (shed >= 0) {
        totals.shed_records += static_cast<uint64_t>(shed);
        ++next_seq;
        continue;
      }
      // After the ring reports done, every remaining hole must be a shed
      // batch whose note we already consumed or a seq past the end.
      if (done && next_seq < total_batches && pending.empty()) {
        // A shed note can land in `shed_` after we first probed this seq;
        // loop around once more before giving up.
        const int64_t late = ring.TakeShed(next_seq);
        if (late >= 0) {
          totals.shed_records += static_cast<uint64_t>(late);
          ++next_seq;
          continue;
        }
      }
      break;
    }
  }
  EXPECT_EQ(next_seq, total_batches);
  return totals;
}

TEST(IngestRingStress, ShedPolicyAccountingCloses) {
  constexpr uint32_t kProducers = 8;
  constexpr uint32_t kBatches = 60;
  constexpr uint32_t kRecords = 7;
  BoundedBatchRing ring(2);  // tiny: guarantees overflow pressure

  for (uint32_t p = 0; p < kProducers; ++p) ring.AddProducer();
  std::vector<std::thread> producers;
  for (uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      ProducerThread(ring, OverloadPolicy::kShed, p, kProducers, kBatches,
                     kRecords);
    });
  }
  ConsumedTotals totals =
      Consume(ring, static_cast<uint64_t>(kProducers) * kBatches);
  for (auto& t : producers) t.join();

  const uint64_t produced =
      static_cast<uint64_t>(kProducers) * kBatches * kRecords;
  // The reconciliation invariant: nothing vanishes without being counted.
  EXPECT_EQ(totals.applied_records + totals.shed_records, produced);
  const auto stats = ring.stats();
  EXPECT_EQ(stats.records_shed, totals.shed_records);
  EXPECT_EQ(stats.batches_pushed, static_cast<uint64_t>(kProducers) * kBatches);

  // In-order reassembly: each producer's surviving records appear in
  // strictly increasing position order (shed batches leave gaps, never
  // reorderings).
  for (const auto& [producer, positions] : totals.per_producer) {
    for (size_t i = 1; i < positions.size(); ++i)
      ASSERT_LT(positions[i - 1], positions[i])
          << "producer " << producer << " reordered at " << i;
  }
}

TEST(IngestRingStress, BlockPolicyIsLossless) {
  constexpr uint32_t kProducers = 8;
  constexpr uint32_t kBatches = 40;
  constexpr uint32_t kRecords = 5;
  BoundedBatchRing ring(2);

  for (uint32_t p = 0; p < kProducers; ++p) ring.AddProducer();
  std::vector<std::thread> producers;
  for (uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      ProducerThread(ring, OverloadPolicy::kBlock, p, kProducers, kBatches,
                     kRecords);
    });
  }
  ConsumedTotals totals =
      Consume(ring, static_cast<uint64_t>(kProducers) * kBatches);
  for (auto& t : producers) t.join();

  EXPECT_EQ(totals.applied_records,
            static_cast<uint64_t>(kProducers) * kBatches * kRecords);
  EXPECT_EQ(totals.shed_records, 0u);
  const auto stats = ring.stats();
  EXPECT_GT(stats.blocked_pushes, 0u) << "capacity 2 never backpressured?";
  // Every producer delivered every position, in order.
  for (uint32_t p = 0; p < kProducers; ++p) {
    const auto& positions = totals.per_producer[p];
    ASSERT_EQ(positions.size(), static_cast<size_t>(kBatches) * kRecords);
    for (size_t i = 0; i < positions.size(); ++i)
      ASSERT_EQ(positions[i], i);
  }
}

TEST(IngestRingPopFor, TimeoutThenGotThenDone) {
  BoundedBatchRing ring(4);
  ring.AddProducer();

  RecordBatch out;
  // Producers active, nothing queued: kTimeout.
  EXPECT_EQ(ring.PopFor(out, 10), BoundedBatchRing::PopStatus::kTimeout);

  RecordBatch batch;
  batch.seq = 0;
  batch.records.push_back({});
  ASSERT_EQ(ring.Push(std::move(batch), OverloadPolicy::kBlock),
            BoundedBatchRing::PushResult::kOk);
  EXPECT_EQ(ring.PopFor(out, 10), BoundedBatchRing::PopStatus::kGot);
  EXPECT_EQ(out.seq, 0u);

  // Last producer done + empty queue: kDone, immediately and repeatably.
  ring.ProducerDone();
  EXPECT_EQ(ring.PopFor(out, 10), BoundedBatchRing::PopStatus::kDone);
  EXPECT_EQ(ring.PopFor(out, 10), BoundedBatchRing::PopStatus::kDone);
}

TEST(IngestRingPopFor, AbortWakesConsumer) {
  BoundedBatchRing ring(4);
  ring.AddProducer();
  std::atomic<bool> got_done{false};
  std::thread consumer([&] {
    RecordBatch out;
    while (ring.PopFor(out, 50) != BoundedBatchRing::PopStatus::kDone) {
    }
    got_done = true;
  });
  ring.Abort();
  consumer.join();
  EXPECT_TRUE(got_done);
}

/// Milliseconds since `t0`.
double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(IngestRingPopFor, WakeCutsAWaitingPopShort) {
  // The server posts control ops from connection threads and wakes the
  // apply thread's PopFor, so a Subscribe round trip never waits out a poll
  // tick.
  BoundedBatchRing ring(4);
  ring.AddProducer();  // a producer stays active throughout
  std::atomic<bool> waiting{false};
  BoundedBatchRing::PopStatus status = BoundedBatchRing::PopStatus::kGot;
  double waited_ms = 0;
  std::thread consumer([&] {
    RecordBatch out;
    waiting = true;
    const auto t0 = std::chrono::steady_clock::now();
    status = ring.PopFor(out, 10'000);
    waited_ms = MillisSince(t0);
  });
  while (!waiting) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ring.Wake();
  consumer.join();
  EXPECT_EQ(status, BoundedBatchRing::PopStatus::kTimeout);
  EXPECT_LT(waited_ms, 2'000.0);
}

TEST(IngestRingPopFor, WakeBeforePopIsStickyAndConsumed) {
  BoundedBatchRing ring(4);
  ring.AddProducer();
  ring.Wake();  // lands before the consumer waits
  RecordBatch out;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(ring.PopFor(out, 10'000), BoundedBatchRing::PopStatus::kTimeout);
  EXPECT_LT(MillisSince(t0), 2'000.0);
  // The wake was consumed: the next PopFor waits out its timeout again.
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_EQ(ring.PopFor(out, 30), BoundedBatchRing::PopStatus::kTimeout);
  EXPECT_GE(MillisSince(t1), 25.0);
  // A wake never hides a ready batch.
  RecordBatch batch;
  batch.seq = 7;
  ASSERT_EQ(ring.Push(std::move(batch), OverloadPolicy::kBlock),
            BoundedBatchRing::PushResult::kOk);
  ring.Wake();
  EXPECT_EQ(ring.PopFor(out, 10'000), BoundedBatchRing::PopStatus::kGot);
  EXPECT_EQ(out.seq, 7u);
}

TEST(ValidateIngestOptionsTest, RejectsDegenerateConfigs) {
  IngestOptions ok;
  EXPECT_EQ(ValidateIngestOptions(ok), "");

  IngestOptions bad = ok;
  bad.batch_window = 0;
  EXPECT_NE(ValidateIngestOptions(bad), "");

  bad = ok;
  bad.batch_threads = 0;
  EXPECT_NE(ValidateIngestOptions(bad), "");

  bad = ok;
  bad.ring_capacity = 0;
  EXPECT_NE(ValidateIngestOptions(bad), "");

  bad = ok;
  bad.snapshot_every_windows = 4;  // cadence without a path
  EXPECT_NE(ValidateIngestOptions(bad), "");

  bad = ok;
  bad.snapshot_every_windows = 4;
  bad.snapshot_path = "/tmp/snap";
  bad.overload = OverloadPolicy::kShed;  // snapshots require kBlock
  EXPECT_NE(ValidateIngestOptions(bad), "");
  bad.overload = OverloadPolicy::kBlock;
  EXPECT_EQ(ValidateIngestOptions(bad), "");
}

}  // namespace
}  // namespace ingest
}  // namespace gstream
