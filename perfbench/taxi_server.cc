// taxi-server: the only workload through the wire protocol, the network
// layer, the server's apply loop and notification fan-out. An in-process
// Server (TRIC+, default options, no journal) is driven over loopback by one
// producer and three subscriber connections, each subscriber holding a third
// of the taxi queries.
//
//  * Phase A is an open loop at a fixed record rate, below the rate at which
//    the server falls behind: every record is due at a fixed time whatever
//    the server does, and notify latency is timed from that due time, so a
//    stall also counts against the records queued behind it.
//    The time from the StreamEdges call that carried a record to the receipt
//    of its Notify, which leaves the generator's own lateness out, is the
//    result latency.
//  * Phase B is a closed loop that sends as fast as StreamEdges accepts and
//    gives the saturated throughput. Its latencies are not reported: the
//    socket buffers take in most of the phase at once, so a record's wait
//    is its queue position divided by the throughput.
//
// Heartbeat and idle options stay at their defaults. A subscriber that
// receives notifications more often than its heartbeat interval never sends
// a heartbeat, and the server reaps it after the idle timeout (see
// NOTES.md), so both phases together stay well below that timeout.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/driver.h"
#include "inputs.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/taxi.h"
#include "workloads.h"

namespace perfbench {

using gstream::EdgeUpdate;
using gstream::QueryId;
using gstream::UpdateResult;
namespace server = gstream::server;
namespace wl = gstream::workload;

namespace {

constexpr size_t kQueries = 600;
constexpr int kSubscribers = 3;
constexpr double kOpenLoopRate = 8000;  // records per second
/// 1.25 s of open loop at kOpenLoopRate.
constexpr size_t kPhaseARecords = 10'000;
/// About 2 s of closed loop: long enough for a steady throughput sample per
/// pass, short enough that both phases end well inside the server's default
/// 10 s idle timeout.
constexpr size_t kPhaseBRecords = 200'000;
constexpr size_t kPhaseBChunk = 256;
/// Length of the stream prefix the queries are drawn from.
constexpr size_t kQueryStreamRecords = 120'000;
/// Subscriptions per subscriber dropped after the stream to time
/// deregistration, and the probe subscription that confirms each drop.
constexpr size_t kRemovals = 20;
constexpr uint32_t kProbeSubId = 1u << 30;
constexpr const char* kProbePattern = "(?a)-[perfbench_probe]->(?b)";

/// (record index, subscriber, sub_id, count): one delivered match count.
using Notification = std::tuple<uint64_t, int, uint32_t, uint64_t>;

struct Receipt {
  uint64_t record = 0;
  int64_t at_ns = 0;
};

/// Everything one subscriber connection received, written by its reader
/// thread and read once the connection is closed.
struct Inbox {
  std::mutex mu;
  std::vector<Notification> notifications;
  std::vector<Receipt> receipts;
};

struct PassResult {
  double setup_s = 0;
  double phase_b_s = 0;
  double seconds = 0;
  uint64_t rejected_subs = 0;
  Samples subscribe_ms, unsubscribe_ms, stream_edges_ms;
  Samples notify_ms, result_us;
  double generator_late_ms = 0;
  double records_per_window = 0;
  std::vector<Notification> received;
  server::ServerStats stats;
  uint64_t reconnects = 0;
  bool ok = true;
};

void Fail(PassResult& r, const std::string& what, const std::string& error) {
  std::fprintf(stderr, "taxi-server: %s: %s\n", what.c_str(), error.c_str());
  r.ok = false;
}

/// Waits until the server has applied `records`. The in-process server's
/// counter is exact, where WaitApplied only learns of progress at the
/// server's heartbeat cadence.
void AwaitApplied(const server::Server& srv, uint64_t records) {
  while (srv.applied_records() < records)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
}

struct ServerInputs {
  std::vector<std::string> dict;
  std::vector<std::string> patterns;
  std::vector<gstream::QueryPattern> queries;
  /// Query i is sub_id qids[i] of subscriber i % kSubscribers: the share
  /// of each subscriber does not depend on the seed.
  std::vector<QueryId> qids;
  std::vector<EdgeUpdate> records;
};

PassResult RunPass(const ServerInputs& in) {
  PassResult r;
  const auto pass0 = Clock::now();
  const auto setup0 = Clock::now();
  server::Server srv(server::ServerOptions{});
  std::string err;
  if (!srv.Start(&err)) {
    Fail(r, "start", err);
    return r;
  }

  std::vector<std::unique_ptr<server::Client>> subs;
  std::vector<std::unique_ptr<Inbox>> inboxes;
  for (int s = 0; s < kSubscribers; ++s) {
    server::ClientOptions co;
    co.port = srv.port();
    co.name = "subscriber" + std::to_string(s);
    inboxes.push_back(std::make_unique<Inbox>());
    Inbox* box = inboxes.back().get();
    subs.push_back(std::make_unique<server::Client>(co));
    subs.back()->OnNotify([box, s](const server::NotifyMsg& m) {
      Tracer::Scope span("client.notify");
      const int64_t now = NowNs();
      std::lock_guard<std::mutex> lock(box->mu);
      if (m.record_index < kPhaseARecords)
        box->receipts.push_back(Receipt{m.record_index, now});
      for (const auto& [sub_id, count] : m.counts)
        box->notifications.emplace_back(m.record_index, s, sub_id, count);
    });
    if (!subs.back()->Connect(&err)) {
      Fail(r, "subscriber connect", err);
      return r;
    }
  }

  // Each subscriber registers its third in parallel; every Subscribe is a
  // synchronous round trip through the apply loop.
  std::vector<Samples> sub_ms(kSubscribers);
  std::vector<uint64_t> rejected(kSubscribers, 0);
  std::vector<std::string> sub_err(kSubscribers);
  {
    std::vector<std::thread> threads;
    for (int s = 0; s < kSubscribers; ++s) {
      threads.emplace_back([&, s] {
        for (size_t i = s; i < in.patterns.size(); i += kSubscribers) {
          server::SubAckMsg ack;
          const auto t0 = Clock::now();
          bool ok;
          {
            Tracer::Scope span("client.subscribe");
            ok = subs[s]->Subscribe(in.qids[i], in.patterns[i], &ack, &sub_err[s]);
          }
          sub_ms[s].Add(SecondsSince(t0) * 1e3);
          if (!ok || ack.status == static_cast<uint8_t>(server::SubStatus::kError))
            ++rejected[s];
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (int s = 0; s < kSubscribers; ++s) {
    r.subscribe_ms.Append(sub_ms[s]);
    r.rejected_subs += rejected[s];
    rejected[s] = 0;
  }

  server::ClientOptions po;
  po.port = srv.port();
  po.name = "producer";
  server::Client producer(po);
  if (!producer.Connect(&err)) {
    Fail(r, "producer connect", err);
    return r;
  }
  producer.SetDictionary(in.dict);
  r.setup_s = SecondsSince(setup0);

  // Phase A: open loop. Record i is due at t0 + i / rate; the generator
  // sends everything due, then sleeps until the next record is due.
  const int64_t period_ns = static_cast<int64_t>(1e9 / kOpenLoopRate);
  const int64_t t0 = NowNs();
  std::vector<int64_t> send_ns(kPhaseARecords, 0);
  int64_t late_ns = 0;
  size_t sent = 0;
  while (sent < kPhaseARecords) {
    const int64_t due = t0 + static_cast<int64_t>(sent) * period_ns;
    int64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = NowNs();
    }
    late_ns = std::max(late_ns, now - due);
    const size_t upto =
        std::min(kPhaseARecords, static_cast<size_t>((now - t0) / period_ns) + 1);
    const std::vector<EdgeUpdate> chunk(in.records.begin() + sent,
                                        in.records.begin() + upto);
    const int64_t s0 = NowNs();
    std::fill(send_ns.begin() + sent, send_ns.begin() + upto, s0);
    bool ok;
    {
      Tracer::Scope span("client.stream_edges");
      ok = producer.StreamEdges(chunk, &err);
    }
    r.stream_edges_ms.Add((NowNs() - s0) / 1e6);
    if (!ok) {
      Fail(r, "phase A stream", err);
      return r;
    }
    sent = upto;
  }
  r.generator_late_ms = late_ns / 1e6;
  AwaitApplied(srv, kPhaseARecords);
  const server::ServerStats after_a = srv.stats();
  r.records_per_window = after_a.windows_finalized > 0
                             ? static_cast<double>(after_a.records_applied) /
                                   after_a.windows_finalized
                             : 0.0;

  // Phase B: closed loop, as fast as StreamEdges accepts.
  const auto b0 = Clock::now();
  for (size_t base = kPhaseARecords; base < in.records.size(); base += kPhaseBChunk) {
    const size_t end = std::min(in.records.size(), base + kPhaseBChunk);
    const std::vector<EdgeUpdate> chunk(in.records.begin() + base,
                                        in.records.begin() + end);
    Tracer::Scope span("client.stream_edges");
    if (!producer.StreamEdges(chunk, &err)) {
      Fail(r, "phase B stream", err);
      return r;
    }
  }
  AwaitApplied(srv, in.records.size());
  r.phase_b_s = SecondsSince(b0);
  {
    Tracer::Scope span("client.wait_applied");
    if (!producer.WaitApplied(in.records.size(), &err)) {
      Fail(r, "phase B wait", err);
      return r;
    }
  }

  // Unsubscribe is a one-way frame. The server handles control frames in
  // order, so the SubAck of a probe subscription sent right after it (a
  // pattern no record matches, cheap to register) confirms the removal.
  {
    std::vector<std::thread> threads;
    std::vector<Samples> unsub_ms(kSubscribers);
    for (int s = 0; s < kSubscribers; ++s) {
      threads.emplace_back([&, s] {
        size_t done = 0;
        for (size_t i = s; i < in.patterns.size() && done < kRemovals;
             i += kSubscribers, ++done) {
          server::SubAckMsg ack;
          const auto u0 = Clock::now();
          const bool ok = subs[s]->Unsubscribe(in.qids[i], &sub_err[s]) &&
                          subs[s]->Subscribe(kProbeSubId, kProbePattern, &ack, &sub_err[s]);
          unsub_ms[s].Add(SecondsSince(u0) * 1e3);
          if (!ok || ack.status == static_cast<uint8_t>(server::SubStatus::kError) ||
              !subs[s]->Unsubscribe(kProbeSubId, &sub_err[s]))
            ++rejected[s];
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (int s = 0; s < kSubscribers; ++s) {
      r.unsubscribe_ms.Append(unsub_ms[s]);
      r.rejected_subs += rejected[s];
    }
  }

  producer.Close();
  srv.Drain();  // flushes every outbound queue, so delivery accounting closes
  for (int s = 0; s < kSubscribers; ++s) {
    r.reconnects += subs[s]->stats().reconnects;
    subs[s]->Close();
  }
  r.stats = srv.stats();
  r.seconds = SecondsSince(pass0);

  for (auto& box : inboxes) {
    r.received.insert(r.received.end(), box->notifications.begin(),
                      box->notifications.end());
    std::vector<Notification>().swap(box->notifications);
    for (const Receipt& rc : box->receipts) {
      const int64_t due = t0 + static_cast<int64_t>(rc.record) * period_ns;
      r.notify_ms.Add((rc.at_ns - due) / 1e6);
      r.result_us.Add((rc.at_ns - send_ns[rc.record]) / 1e3);
    }
  }
  return r;
}

/// Output checks of one pass: the delivered (record, subscriber, sub_id,
/// count) set equals the reference `expected` (sorted), and nothing was lost
/// on the way. Runs as soon as the pass ends and frees its notifications, so
/// the process's peak memory does not grow with the number of passes.
void CheckPass(PassResult& p, const std::vector<Notification>& expected,
               const ServerInputs& in, Report& report) {
  std::sort(p.received.begin(), p.received.end());
  std::vector<Notification> missing;
  std::set_difference(expected.begin(), expected.end(), p.received.begin(),
                      p.received.end(), std::back_inserter(missing));
  const server::ServerStats& s = p.stats;
  report.Check(p.ok && p.received == expected && !expected.empty(),
               "taxi-server notifications == in-process RunStream (" +
                   std::to_string(p.received.size()) + " vs " +
                   std::to_string(expected.size()) + ")");
  report.Check(s.notifications_produced ==
                   s.notifications_delivered + s.notifications_shed,
               "taxi-server produced == delivered + shed");
  report.Check(s.records_applied == in.records.size() && p.rejected_subs == 0,
               "taxi-server every record applied, every subscription accepted");
  report.attempted += in.records.size() + expected.size() + in.queries.size();
  report.failed += (in.records.size() - std::min<uint64_t>(s.records_applied,
                                                           in.records.size())) +
                   missing.size() + p.rejected_subs + s.notifications_shed +
                   s.idle_disconnects + s.slow_disconnects + p.reconnects;
  std::vector<Notification>().swap(p.received);
}

}  // namespace

void RunTaxiServer(const Args& args, Report& report) {
  const auto gen0 = Clock::now();
  ServerInputs in;
  wl::TaxiConfig tc;
  tc.num_updates = kPhaseARecords + kPhaseBRecords;
  tc.seed = kStructureSeed;
  const wl::Workload w = wl::GenerateTaxi(tc);
  // The generator draws queries from the whole stream it is given; drawing
  // them from a fixed prefix keeps the query set, and so the open-loop
  // phase, independent of the closed-loop length.
  wl::Workload prefix = w;
  prefix.stream.Truncate(kQueryStreamRecords);
  const wl::QuerySet qs = wl::GenerateQueries(prefix, PaperQueryConfig(kQueries));
  Inputs relabeled = Relabel(w, qs, args.seed);
  in.queries = std::move(relabeled.queries);
  in.qids = std::move(relabeled.qids);
  in.records = std::move(relabeled.updates);
  const gstream::StringInterner& interner = *relabeled.interner;
  for (const gstream::QueryPattern& q : in.queries)
    in.patterns.push_back(q.ToString(interner));
  for (uint32_t id = 0; id < interner.size(); ++id) in.dict.push_back(interner.Lookup(id));
  const double gen_s = SecondsSince(gen0);

  // Reference: an in-process RunStream of the same records and queries.
  // Query i is sub_id qids[i] of subscriber i % kSubscribers.
  std::vector<Notification> expected;
  double phase_b_engine_s = 0;
  size_t reference_memory = 0;
  {
    std::unique_ptr<ProbeEngine> ref = MakeTricPlus();
    std::vector<int> subscriber_of(in.queries.size());
    for (size_t i = 0; i < in.queries.size(); ++i) {
      ref->AddQuery(in.qids[i], in.queries[i]);
      subscriber_of[in.qids[i]] = static_cast<int>(i % kSubscribers);
    }
    uint64_t offset = 0;
    const auto sink = [&](uint64_t index, const UpdateResult& res) {
      for (const auto& [qid, count] : res.per_query)
        expected.emplace_back(offset + index, subscriber_of[qid], qid, count);
    };
    gstream::UpdateStream a, b;
    for (size_t i = 0; i < in.records.size(); ++i)
      (i < kPhaseARecords ? a : b).Append(in.records[i]);
    gstream::RunStream(*ref, a, gstream::RunConfig{}, sink);
    offset = kPhaseARecords;
    phase_b_engine_s = gstream::RunStream(*ref, b, gstream::RunConfig{}, sink)
                           .answer_millis / 1e3;
    reference_memory = ref->MemoryBytes();
  }
  std::sort(expected.begin(), expected.end());

  const auto run_pass = [&] {
    PassResult p = RunPass(in);
    CheckPass(p, expected, in, report);
    return p;
  };
  if (args.trace) {
    const PassResult untraced = run_pass();
    Tracer tracer;
    Tracer::Activate(&tracer);
    const PassResult t = run_pass();
    Tracer::Activate(nullptr);
    report.Set("server.subscribe_ms_p50", t.subscribe_ms.Percentile(50), "ms");
    report.Set("server.subscribe_ms_p99", t.subscribe_ms.Percentile(99), "ms");
    report.Set("server.stream_edges_ms_p99", t.stream_edges_ms.Percentile(99), "ms");
    report.Set("server.generator_late_ms_max", t.generator_late_ms, "ms");
    report.Set("server.records_per_window", t.records_per_window, "count");
    report.Set("server.engine_share", phase_b_engine_s / t.phase_b_s, "ratio");
    report.Set("server.notifications",
               static_cast<double>(t.stats.notifications_delivered), "count");
    report.Set("server.disconnects",
               static_cast<double>(t.stats.idle_disconnects + t.stats.slow_disconnects),
               "count");
    report.Set("server.reconnects", static_cast<double>(t.reconnects), "count");
    report.Set("trace.spans", static_cast<double>(tracer.size()), "count");
    report.Set("trace.overhead_ratio", t.phase_b_s / untraced.phase_b_s - 1, "ratio");
    if (!args.trace_out.empty()) tracer.WriteCsv(args.trace_out);
  } else {
    // Open-loop latency percentiles are taken per pass and reported as the
    // median over passes, so one pass hit by a host stall does not set them.
    // The tail is p95: a pass's p99 is set by one to three scheduler stalls
    // of a shared host (see NOTES.md).
    std::vector<double> setup_s, upd_per_s;
    PassPercentiles result_us, notify_ms;
    Samples add_ms, remove_ms;
    double phase_b_s = 0;
    const int passes = RepeatPasses(args.seconds, [&](int) {
      const PassResult p = run_pass();
      setup_s.push_back(p.setup_s);
      upd_per_s.push_back(kPhaseBRecords / p.phase_b_s);
      phase_b_s += p.phase_b_s;
      result_us.Add(p.result_us);
      notify_ms.Add(p.notify_ms);
      add_ms.Append(p.subscribe_ms);
      remove_ms.Append(p.unsubscribe_ms);
      return p.seconds;
    });
    std::fprintf(stderr,
                 "taxi-server: %d passes, %zu open-loop records at %.0f/s, %zu "
                 "closed-loop records, %zu queries;",
                 passes, kPhaseARecords, kOpenLoopRate, kPhaseBRecords,
                 in.queries.size());
    for (double u : upd_per_s) std::fprintf(stderr, " %.0f", u);
    std::fprintf(stderr, " records/s\n");
    // Throughput over the phase B of every pass together: a pass's rate
    // swings by a third with where the host places the server's threads, and
    // a run holds only a few passes.
    report.Set("updates_per_s", passes * kPhaseBRecords / phase_b_s, "1/s");
    report.Set("result_latency_p50_us", result_us.p50(), "us");
    report.Set("result_latency_p95_us", result_us.p95(), "us");
    report.Set("notify_latency_p50_ms", notify_ms.p50(), "ms");
    report.Set("notify_latency_p95_ms", notify_ms.p95(), "ms");
    report.Set("add_query_ms_p50", add_ms.Percentile(50), "ms");
    report.Set("add_query_ms_p95", add_ms.Percentile(95), "ms");
    report.Set("remove_query_ms_p50", remove_ms.Percentile(50), "ms");
    report.Set("remove_query_ms_p95", remove_ms.Percentile(95), "ms");
    report.Set("setup_s", Median(setup_s), "s");
    // The server's engine is private to it; the reference engine holds the
    // same queries and records.
    report.Set("engine_memory_bytes", static_cast<double>(reference_memory), "bytes");
    report.Set("peak_rss_bytes", PeakRssBytes(), "bytes");
  }
  report.Set("workload.gen_s", gen_s, "s");
}

}  // namespace perfbench
