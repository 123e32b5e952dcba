#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/driver.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "server/client.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workload/snb.h"

namespace gstream {
namespace server {
namespace {

/// Loopback end-to-end tests: a real TCP server + the client library on
/// 127.0.0.1. The core assertion is oracle equality — the notification
/// sequence pushed through the socket stack must be byte-for-byte the
/// emission sequence of a plain RunStream over the same updates and queries
/// (engines guarantee windowing-independence, so the server's batching can
/// never change what is notified). The rest covers the robustness machinery:
/// slow-client policies, idle disconnects, bad-pattern acks, log-gap resume.
/// ASan/TSan run this file (`sanitizer` label).

/// Hand-written patterns over the SNB label vocabulary (text is what goes
/// over the wire; the server parses against its own interner).
const char* kPatterns[] = {
    "(?a)-[knows]->(?b); (?b)-[knows]->(?c)",
    "(?p)-[posted]->(?m); (?m)-[hasTag]->(?t)",
    "(?a)-[likes]->(?m)",
};
constexpr size_t kNumPatterns = sizeof(kPatterns) / sizeof(kPatterns[0]);

workload::Workload MakeWorkload(size_t updates = 600) {
  workload::SnbConfig cfg;
  cfg.num_updates = updates;
  cfg.seed = 7;
  cfg.num_places = 8;
  cfg.num_tags = 8;
  return workload::GenerateSnb(cfg);
}

std::vector<std::string> DictOf(const StringInterner& interner) {
  std::vector<std::string> dict;
  dict.reserve(interner.size());
  for (uint32_t id = 0; id < interner.size(); ++id)
    dict.push_back(interner.Lookup(id));
  return dict;
}

/// record index -> (sub_id/qid, count) ascending; only non-empty updates.
using NotifySeq = std::map<uint64_t, std::vector<std::pair<uint32_t, uint64_t>>>;

/// The oracle: RunStream over the same engine kind + queries, capturing the
/// exact emission sequence through the accumulator sink.
NotifySeq OracleSequence(EngineKind kind, const workload::Workload& w,
                         size_t num_patterns = kNumPatterns) {
  auto engine = CreateEngine(kind);
  for (uint32_t i = 0; i < num_patterns; ++i) {
    ParseResult pr = ParsePattern(kPatterns[i], *w.interner);
    EXPECT_TRUE(pr.ok) << pr.error;
    engine->AddQuery(i, pr.pattern);
  }
  NotifySeq seq;
  RunStream(*engine, w.stream, {},
            [&seq](uint64_t index, const UpdateResult& r) {
              if (r.per_query.empty()) return;
              auto& counts = seq[index];
              for (const auto& [qid, n] : r.per_query)
                counts.emplace_back(static_cast<uint32_t>(qid), n);
            });
  return seq;
}

/// Streams the workload through a client and collects the pushed sequence.
/// At-least-once delivery across reconnects: re-deliveries must agree.
struct Collector {
  std::mutex mu;
  NotifySeq seq;

  void Bind(Client& client) {
    client.OnNotify([this](const NotifyMsg& m) {
      std::lock_guard<std::mutex> lock(mu);
      auto it = seq.find(m.record_index);
      if (it != seq.end()) {
        EXPECT_EQ(it->second, m.counts)
            << "re-delivered notification diverged at " << m.record_index;
        return;
      }
      seq[m.record_index] = m.counts;
    });
  }

  NotifySeq Take() {
    std::lock_guard<std::mutex> lock(mu);
    return seq;
  }
};

ServerOptions FastServerOptions() {
  ServerOptions opts;
  opts.port = 0;
  opts.batch_window = 16;
  opts.heartbeat_millis = 50;  // progress acks flow promptly
  return opts;
}

ClientOptions ClientOptionsFor(const Server& server,
                               const std::string& name = "c1") {
  ClientOptions opts;
  opts.port = server.port();
  opts.name = name;
  opts.heartbeat_millis = 50;
  opts.call_timeout_millis = 30000;
  return opts;
}

void SubscribeAll(Client& client, size_t num_patterns = kNumPatterns) {
  for (uint32_t i = 0; i < num_patterns; ++i) {
    SubAckMsg ack;
    std::string err;
    ASSERT_TRUE(client.Subscribe(i, kPatterns[i], &ack, &err)) << err;
    ASSERT_NE(ack.status, static_cast<uint8_t>(SubStatus::kError))
        << ack.message;
    // Single-client subscribe order pins qid == sub_id, which is what makes
    // the oracle comparison line up without a mapping step.
    ASSERT_EQ(ack.qid, i);
  }
}

TEST(ServerLoopback, NotificationsMatchRunStreamOracle) {
  const workload::Workload w = MakeWorkload(600);
  Server server(FastServerOptions());
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  Client client(ClientOptionsFor(server));
  Collector collector;
  collector.Bind(client);
  ASSERT_TRUE(client.Connect(&err)) << err;
  SubscribeAll(client);
  client.SetDictionary(DictOf(*w.interner));
  ASSERT_TRUE(client.StreamEdges(w.stream.updates(), &err)) << err;
  ASSERT_TRUE(client.WaitApplied(w.stream.size(), &err)) << err;
  client.Close();
  server.Drain();

  const NotifySeq oracle = OracleSequence(EngineKind::kTricPlus, w);
  const NotifySeq got = collector.Take();
  EXPECT_FALSE(oracle.empty()) << "workload produced no matches at all";
  EXPECT_EQ(got, oracle);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.records_applied, w.stream.size());
  EXPECT_EQ(stats.notifications_shed, 0u);
  EXPECT_EQ(stats.notifications_produced, stats.notifications_delivered);
}

TEST(ServerLoopback, BusySubscriberKeepsSendingHeartbeats) {
  // A subscriber that is sent a frame more often than its heartbeat period
  // never sees a read time out, and it has nothing else to write. It must
  // still prove liveness, or the server reaps it after idle_timeout_millis
  // and the notifications stop reaching it.
  const workload::Workload w = MakeWorkload(600);
  ServerOptions sopts = FastServerOptions();  // Progress frames every 50 ms
  sopts.idle_timeout_millis = 600;
  Server server(sopts);
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  ClientOptions sub_opts = ClientOptionsFor(server, "subscriber");
  sub_opts.heartbeat_millis = 200;  // longer than the server's frame gaps
  Client subscriber(sub_opts);
  Collector collector;
  collector.Bind(subscriber);
  ASSERT_TRUE(subscriber.Connect(&err)) << err;
  SubscribeAll(subscriber);

  // Trickle the stream for 60 x 40 ms = 2.4 s, four idle timeouts, so
  // notifications keep arriving the whole time.
  Client producer(ClientOptionsFor(server, "producer"));
  ASSERT_TRUE(producer.Connect(&err)) << err;
  producer.SetDictionary(DictOf(*w.interner));
  const std::vector<EdgeUpdate>& updates = w.stream.updates();
  constexpr size_t kChunk = 10;
  for (size_t lo = 0; lo < updates.size(); lo += kChunk) {
    const size_t hi = std::min(updates.size(), lo + kChunk);
    ASSERT_TRUE(producer.StreamEdges(
        std::vector<EdgeUpdate>(updates.begin() + static_cast<std::ptrdiff_t>(lo),
                                updates.begin() + static_cast<std::ptrdiff_t>(hi)),
        &err))
        << err;
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  ASSERT_TRUE(producer.WaitApplied(updates.size(), &err)) << err;
  producer.Close();
  subscriber.Close();
  server.Drain();

  EXPECT_EQ(server.stats().idle_disconnects, 0u);
  EXPECT_EQ(subscriber.stats().reconnects, 0u);
  const NotifySeq oracle = OracleSequence(EngineKind::kTricPlus, w);
  EXPECT_FALSE(oracle.empty());
  EXPECT_EQ(collector.Take(), oracle);
}

TEST(ServerLoopback, LoneRecordIsNotifiedWithoutWaitingForItsWindow) {
  // A window far larger than the stream: a record that waited for its window
  // to fill would never be applied before Drain. The apply thread instead
  // applies a partial window as soon as the ring runs dry.
  ServerOptions opts;
  opts.batch_window = 1024;
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  std::mutex mu;
  std::condition_variable notified;
  uint64_t notifies = 0;
  Client subscriber(ClientOptionsFor(server, "subscriber"));
  subscriber.OnNotify([&](const NotifyMsg&) {
    std::lock_guard<std::mutex> lock(mu);
    ++notifies;
    notified.notify_all();
  });
  ASSERT_TRUE(subscriber.Connect(&err)) << err;
  SubAckMsg ack;
  ASSERT_TRUE(subscriber.Subscribe(0, "(?a)-[e]->(?b)", &ack, &err)) << err;
  ASSERT_EQ(ack.status, static_cast<uint8_t>(SubStatus::kNew)) << ack.message;

  constexpr uint64_t kRecords = 10;
  StringInterner interner;
  std::vector<EdgeUpdate> records;
  for (uint64_t i = 0; i < kRecords; ++i) {
    EdgeUpdate u;
    u.src = interner.Intern("s" + std::to_string(i));
    u.label = interner.Intern("e");
    u.dst = interner.Intern("d" + std::to_string(i));
    records.push_back(u);
  }
  Client producer(ClientOptionsFor(server, "producer"));
  ASSERT_TRUE(producer.Connect(&err)) << err;
  producer.SetDictionary(DictOf(interner));

  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(producer.StreamEdges({records[i]}, &err)) << err;
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(notified.wait_for(lock, std::chrono::seconds(10),
                                  [&] { return notifies == i + 1; }))
        << "record " << i << " was not notified";
  }
  const double round_trips_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  producer.Close();
  subscriber.Close();
  server.Drain();

  EXPECT_EQ(notifies, kRecords);
  // One window per record: each was applied alone, before the next was sent.
  EXPECT_EQ(server.stats().windows_finalized, kRecords);
  EXPECT_LT(round_trips_ms, 150.0);
}

/// Raw-socket helper: handshake as `name`, optionally subscribing to the
/// notification firehose, then leave the socket unread (a slow consumer).
int RawHandshake(int port, const std::string& name, bool subscribe,
                 uint64_t resume_notify, HelloAckMsg* ack_out,
                 int rcvbuf_bytes = 0) {
  std::string err;
  const int fd = ConnectTcp("127.0.0.1", port, 2000, &err, rcvbuf_bytes);
  EXPECT_GE(fd, 0) << err;
  if (fd < 0) return -1;
  HelloMsg hello;
  hello.name = name;
  hello.resume_notify = resume_notify;
  std::vector<uint8_t> frame = EncodeHello(hello);
  EXPECT_TRUE(SendAll(fd, frame.data(), frame.size()));
  Frame f;
  EXPECT_EQ(ReadFrame(fd, 5000, f, &err), ReadStatus::kOk) << err;
  EXPECT_EQ(f.type, FrameType::kHelloAck);
  if (ack_out != nullptr) {
    EXPECT_TRUE(DecodeHelloAck(f.payload, *ack_out));
  }
  if (subscribe) {
    SubscribeMsg sm;
    sm.sub_id = 100;
    sm.pattern = "(?a)-[knows]->(?b)";  // fires on every knows edge
    frame = EncodeSubscribe(sm);
    EXPECT_TRUE(SendAll(fd, frame.data(), frame.size()));
    EXPECT_EQ(ReadFrame(fd, 5000, f, &err), ReadStatus::kOk) << err;
    EXPECT_EQ(f.type, FrameType::kSubAck);
  }
  return fd;
}

/// Drives the shed/disconnect slow-client policies: a subscriber that stops
/// reading while a producer streams enough matches to overflow its tiny
/// outbound queue.
void RunSlowClientScenario(SlowClientPolicy policy, ServerStats* stats_out,
                           uint64_t* produced_minus_queue) {
  const workload::Workload w = MakeWorkload(900);
  ServerOptions opts = FastServerOptions();
  opts.slow_client = policy;
  opts.outbound_capacity = 2;
  // Tiny kernel buffers on both sides of the slow socket: without them the
  // ~hundreds of KB the kernel buffers absorb every notification and the
  // outbound queue never overflows — whether the policy fired would be a
  // scheduling coin flip. (Both values are clamped up to the kernel minimum;
  // skb truesize overhead means only a handful of small frames fit.)
  opts.sndbuf_bytes = 4096;
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  const int slow_fd =
      RawHandshake(server.port(), "slow-sub", /*subscribe=*/true, kNoOffset,
                   nullptr, /*rcvbuf_bytes=*/4096);
  ASSERT_GE(slow_fd, 0);
  // Never read again: the subscriber's queue backs up at capacity 2.

  Client producer(ClientOptionsFor(server, "producer"));
  ASSERT_TRUE(producer.Connect(&err)) << err;
  producer.SetDictionary(DictOf(*w.interner));
  ASSERT_TRUE(producer.StreamEdges(w.stream.updates(), &err)) << err;
  ASSERT_TRUE(producer.WaitApplied(w.stream.size(), &err)) << err;
  producer.Close();

  // Unblock any writer stuck on the slow socket, then drain.
  ShutdownFd(slow_fd);
  server.Drain();
  CloseFd(slow_fd);
  *stats_out = server.stats();
  *produced_minus_queue =
      stats_out->notifications_delivered + stats_out->notifications_shed;
}

TEST(ServerLoopback, SlowClientShedOldestCountsEveryLoss) {
  ServerStats stats;
  uint64_t accounted = 0;
  RunSlowClientScenario(SlowClientPolicy::kShedOldest, &stats, &accounted);
  EXPECT_GT(stats.notifications_produced, 0u);
  EXPECT_GT(stats.notifications_shed, 0u) << "queue capacity 2 never shed?";
  // The reconciliation invariant: every produced notification is either
  // delivered or counted shed once the queues are gone.
  EXPECT_EQ(stats.notifications_produced, accounted);
}

TEST(ServerLoopback, SlowClientDisconnectPolicyFires) {
  ServerStats stats;
  uint64_t accounted = 0;
  RunSlowClientScenario(SlowClientPolicy::kDisconnect, &stats, &accounted);
  EXPECT_GE(stats.slow_disconnects, 1u);
  EXPECT_EQ(stats.notifications_produced, accounted);
}

TEST(ServerLoopback, IdleConnectionIsDisconnected) {
  ServerOptions opts = FastServerOptions();
  opts.heartbeat_millis = 50;
  opts.idle_timeout_millis = 200;
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  // Handshake, then total silence — no heartbeats. The server must evict us.
  const int fd = RawHandshake(server.port(), "mute", /*subscribe=*/false,
                              kNoOffset, nullptr);
  ASSERT_GE(fd, 0);
  bool saw_idle_error = false;
  for (int i = 0; i < 50; ++i) {
    Frame f;
    const ReadStatus st = ReadFrame(fd, 200, f, &err);
    if (st == ReadStatus::kClosed || st == ReadStatus::kError) break;
    if (st == ReadStatus::kOk && f.type == FrameType::kError) {
      ErrorMsg em;
      ASSERT_TRUE(DecodeError(f.payload, em));
      EXPECT_EQ(em.code, static_cast<uint16_t>(ErrorCode::kIdleTimeout));
      saw_idle_error = true;
    }
  }
  CloseFd(fd);
  EXPECT_TRUE(saw_idle_error);
  server.Drain();
  EXPECT_GE(server.stats().idle_disconnects, 1u);
}

TEST(ServerLoopback, BadPatternAcksErrorAndConnectionSurvives) {
  Server server(FastServerOptions());
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  Client client(ClientOptionsFor(server));
  ASSERT_TRUE(client.Connect(&err)) << err;

  SubAckMsg ack;
  ASSERT_TRUE(client.Subscribe(0, "this is not a pattern", &ack, &err)) << err;
  EXPECT_EQ(ack.status, static_cast<uint8_t>(SubStatus::kError));
  EXPECT_FALSE(ack.message.empty());

  // Same connection keeps working: a valid pattern subscribes normally.
  ASSERT_TRUE(client.Subscribe(1, kPatterns[0], &ack, &err)) << err;
  EXPECT_EQ(ack.status, static_cast<uint8_t>(SubStatus::kNew));
  EXPECT_EQ(client.stats().reconnects, 0u);
  client.Close();
  server.Drain();
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

TEST(ServerLoopback, ResumePastTrimmedLogReportsGap) {
  const workload::Workload w = MakeWorkload(900);
  ServerOptions opts = FastServerOptions();
  opts.notify_log_capacity = 8;  // force the log to trim
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  Client producer(ClientOptionsFor(server, "producer"));
  ASSERT_TRUE(producer.Connect(&err)) << err;
  SubscribeAll(producer);
  producer.SetDictionary(DictOf(*w.interner));
  ASSERT_TRUE(producer.StreamEdges(w.stream.updates(), &err)) << err;
  ASSERT_TRUE(producer.WaitApplied(w.stream.size(), &err)) << err;
  const uint64_t notifies = producer.stats().notifies;
  ASSERT_GT(notifies, 8u) << "need more matches than the log holds";
  producer.Close();

  // A subscriber asking for "everything from record 0" cannot be served
  // from an 8-entry log: the ack must say kGap and point at the log start.
  HelloAckMsg ack;
  const int fd = RawHandshake(server.port(), "late-sub", /*subscribe=*/false,
                              /*resume_notify=*/0, &ack);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(ack.resume_status, static_cast<uint8_t>(ResumeStatus::kGap));
  EXPECT_GT(ack.notify_log_start, 0u);
  CloseFd(fd);
  server.Drain();
}

TEST(ServerLoopback, DrainAnnouncesBoundaryToClients) {
  const workload::Workload w = MakeWorkload(300);
  Server server(FastServerOptions());
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  Client client(ClientOptionsFor(server));
  ASSERT_TRUE(client.Connect(&err)) << err;
  SubscribeAll(client);
  client.SetDictionary(DictOf(*w.interner));
  ASSERT_TRUE(client.StreamEdges(w.stream.updates(), &err)) << err;
  ASSERT_TRUE(client.WaitApplied(w.stream.size(), &err)) << err;

  server.Drain();
  // The Drain frame must reach the attached client before its socket closes.
  for (int i = 0; i < 100 && !client.drained(); ++i) ::usleep(20 * 1000);
  EXPECT_TRUE(client.drained());
  client.Close();
}

}  // namespace
}  // namespace server
}  // namespace gstream
