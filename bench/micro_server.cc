// Micro-benchmark of the streaming socket server (DESIGN.md §11): loopback
// notification fan-out rate and end-to-end latency (producer send -> Notify
// callback) as a function of subscriber count and outbound-queue policy.
// The shed policy trades delivery completeness for bounded queues under
// fan-out pressure; the `shed` counter reports what that cost per run.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/interning.h"
#include "graph/update.h"
#include "server/client.h"
#include "server/server.h"

namespace {

using namespace gstream;
using Clock = std::chrono::steady_clock;

constexpr size_t kRecords = 4000;
constexpr size_t kChunk = 128;  // StreamEdges granularity = send timestamps

// Every record is a distinct edge under one label, so each add produces
// exactly one new embedding for the single-edge pattern — one Notify per
// record per subscriber, the maximum fan-out pressure per applied record.
struct BenchStream {
  std::vector<std::string> dict;
  std::vector<EdgeUpdate> updates;
};

const BenchStream& TestStream() {
  static const BenchStream* stream = [] {
    auto* s = new BenchStream();
    StringInterner interner;
    const LabelId label = interner.Intern("e");
    s->updates.reserve(kRecords);
    for (size_t i = 0; i < kRecords; ++i) {
      EdgeUpdate u;
      u.src = interner.Intern("s" + std::to_string(i));
      u.label = label;
      u.dst = interner.Intern("d" + std::to_string(i));
      s->updates.push_back(u);
    }
    for (uint32_t id = 0; id < interner.size(); ++id)
      s->dict.push_back(interner.Lookup(id));
    return s;
  }();
  return *stream;
}

void BM_ServerNotifyFanout(benchmark::State& state) {
  const int num_subs = static_cast<int>(state.range(0));
  const bool shed = state.range(1) != 0;
  const BenchStream& bs = TestStream();

  double notifies_per_sec = 0;
  double p50_ms = 0, p99_ms = 0;
  uint64_t shed_total = 0;

  for (auto _ : state) {
    server::ServerOptions sopts;
    sopts.port = 0;
    sopts.batch_window = 64;
    sopts.heartbeat_millis = 50;
    sopts.slow_client = shed ? server::SlowClientPolicy::kShedOldest
                             : server::SlowClientPolicy::kBlock;
    sopts.outbound_capacity = shed ? 64 : 4096;
    server::Server server(sopts);
    std::string err;
    if (!server.Start(&err)) state.SkipWithError(err.c_str());

    // Send timestamp per record (producer thread writes before the frame
    // goes out; subscriber reader threads read on Notify receipt).
    auto send_ns = std::make_unique<std::atomic<int64_t>[]>(kRecords);
    std::atomic<uint64_t> notify_count{0};
    std::mutex lat_mu;
    std::vector<double> latencies_ms;
    latencies_ms.reserve(kRecords);

    std::vector<std::unique_ptr<server::Client>> subs;
    for (int i = 0; i < num_subs; ++i) {
      server::ClientOptions copts;
      copts.port = server.port();
      copts.name = "sub" + std::to_string(i);
      copts.heartbeat_millis = 50;
      auto sub = std::make_unique<server::Client>(copts);
      const bool sample = i == 0;  // latency sampled on one subscriber
      sub->OnNotify([&, sample](const server::NotifyMsg& m) {
        notify_count.fetch_add(1, std::memory_order_relaxed);
        if (!sample || m.record_index >= kRecords) return;
        const int64_t sent =
            send_ns[m.record_index].load(std::memory_order_relaxed);
        if (sent == 0) return;
        const double ms =
            static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now().time_since_epoch())
                    .count() -
                sent) /
            1e6;
        std::lock_guard<std::mutex> lock(lat_mu);
        latencies_ms.push_back(ms);
      });
      if (!sub->Connect(&err)) state.SkipWithError(err.c_str());
      server::SubAckMsg ack;
      if (!sub->Subscribe(0, "(?a)-[e]->(?b)", &ack, &err))
        state.SkipWithError(err.c_str());
      subs.push_back(std::move(sub));
    }

    server::ClientOptions popts;
    popts.port = server.port();
    popts.name = "producer";
    popts.heartbeat_millis = 50;
    server::Client producer(popts);
    if (!producer.Connect(&err)) state.SkipWithError(err.c_str());
    producer.SetDictionary(bs.dict);

    const auto t0 = Clock::now();
    for (size_t base = 0; base < kRecords; base += kChunk) {
      const size_t n = std::min(kChunk, kRecords - base);
      const int64_t now =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              Clock::now().time_since_epoch())
              .count();
      for (size_t i = 0; i < n; ++i)
        send_ns[base + i].store(now, std::memory_order_relaxed);
      std::vector<EdgeUpdate> chunk(bs.updates.begin() + base,
                                    bs.updates.begin() + base + n);
      if (!producer.StreamEdges(chunk, &err)) state.SkipWithError(err.c_str());
    }
    if (!producer.WaitApplied(kRecords, &err)) state.SkipWithError(err.c_str());
    // Drain flushes every outbound queue (or counts the remainder shed), so
    // after it the delivery accounting is closed.
    producer.Close();
    server.Drain();
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    for (auto& sub : subs) sub->Close();

    notifies_per_sec = static_cast<double>(notify_count.load()) / secs;
    shed_total = server.stats().notifications_shed;
    {
      std::lock_guard<std::mutex> lock(lat_mu);
      if (!latencies_ms.empty()) {
        std::sort(latencies_ms.begin(), latencies_ms.end());
        p50_ms = latencies_ms[latencies_ms.size() / 2];
        p99_ms = latencies_ms[latencies_ms.size() * 99 / 100];
      }
    }
  }

  state.SetItemsProcessed(state.iterations() * kRecords);
  state.counters["notifies_per_sec"] = notifies_per_sec;
  state.counters["p50_ms"] = p50_ms;
  state.counters["p99_ms"] = p99_ms;
  state.counters["shed"] = static_cast<double>(shed_total);
}
// (subscribers, shed-policy): block vs shed-oldest at 1 and 4 subscribers.
BENCHMARK(BM_ServerNotifyFanout)
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({1, 1})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
