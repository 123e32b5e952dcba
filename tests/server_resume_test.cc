#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
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
#include "server/protocol.h"
#include "server/server.h"
#include "workload/snb.h"

namespace gstream {
namespace server {
namespace {

/// Crash/reconnect-resume tests: kill the server mid-stream (kill -9
/// semantics — no flush, no final snapshot), restart it on the same journal
/// + state files, point the same client at the new port, and require the
/// full notification sequence — across both server lifetimes — to equal the
/// RunStream oracle. Runs the whole matrix of view engines, plus the
/// network-side fault family (torn/duplicated/reordered/delayed frames,
/// mid-handshake resets) on the same convergence criterion.

const char* kPatterns[] = {
    "(?a)-[knows]->(?b); (?b)-[knows]->(?c)",
    "(?p)-[posted]->(?m); (?m)-[hasTag]->(?t)",
    "(?a)-[likes]->(?m)",
};
constexpr size_t kNumPatterns = sizeof(kPatterns) / sizeof(kPatterns[0]);

workload::Workload MakeWorkload(size_t updates, uint64_t seed = 13) {
  workload::SnbConfig cfg;
  cfg.num_updates = updates;
  cfg.seed = seed;
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

using NotifySeq = std::map<uint64_t, std::vector<std::pair<uint32_t, uint64_t>>>;

NotifySeq OracleSequence(EngineKind kind, const workload::Workload& w) {
  auto engine = CreateEngine(kind);
  for (uint32_t i = 0; i < kNumPatterns; ++i) {
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

struct Collector {
  std::mutex mu;
  NotifySeq seq;

  void Bind(Client& client) {
    client.OnNotify([this](const NotifyMsg& m) {
      std::lock_guard<std::mutex> lock(mu);
      auto it = seq.find(m.record_index);
      if (it != seq.end()) {
        // At-least-once re-delivery after a resume must agree exactly.
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

struct Paths {
  std::string journal;
  std::string state;

  explicit Paths(const std::string& tag) {
    // Pid-scoped so concurrent runs of this binary never share a journal.
    const std::string base =
        testing::TempDir() + "/server_" + std::to_string(::getpid()) + "_" + tag;
    journal = base + ".gsb";
    state = base + ".state";
    std::remove(journal.c_str());
    std::remove(state.c_str());
  }
  ~Paths() {
    std::remove(journal.c_str());
    std::remove(state.c_str());
  }
};

ServerOptions DurableOptions(const Paths& paths, EngineKind kind) {
  ServerOptions opts;
  opts.port = 0;
  opts.engine = kind;
  opts.batch_window = 16;
  opts.heartbeat_millis = 50;
  opts.journal_path = paths.journal;
  opts.state_path = paths.state;
  opts.snapshot_every_windows = 2;
  return opts;
}

ClientOptions FastClientOptions(int port, const std::string& name = "c1") {
  ClientOptions opts;
  opts.port = port;
  opts.name = name;
  opts.heartbeat_millis = 50;
  opts.call_timeout_millis = 60000;
  return opts;
}

void SubscribeAll(Client& client) {
  for (uint32_t i = 0; i < kNumPatterns; ++i) {
    SubAckMsg ack;
    std::string err;
    ASSERT_TRUE(client.Subscribe(i, kPatterns[i], &ack, &err)) << err;
    ASSERT_NE(ack.status, static_cast<uint8_t>(SubStatus::kError))
        << ack.message;
  }
}

/// The tentpole acceptance criterion: kill + restart + reconnect yields the
/// oracle's exact notification sequence, for every view engine.
TEST(ServerResume, KillAndResumeMatchesOracleAcrossEngines) {
  for (EngineKind kind : PaperEngineKinds()) {
    if (kind == EngineKind::kGraphDb) continue;  // no incremental view state
    SCOPED_TRACE(EngineKindName(kind));
    const workload::Workload w = MakeWorkload(500);
    const size_t half = w.stream.size() / 2;
    const std::vector<EdgeUpdate>& all = w.stream.updates();
    Paths paths(std::string("kill_") + EngineKindName(kind));

    auto server = std::make_unique<Server>(DurableOptions(paths, kind));
    std::string err;
    ASSERT_TRUE(server->Start(&err)) << err;

    Client client(FastClientOptions(server->port()));
    Collector collector;
    collector.Bind(client);
    ASSERT_TRUE(client.Connect(&err)) << err;
    SubscribeAll(client);
    client.SetDictionary(DictOf(*w.interner));
    ASSERT_TRUE(client.StreamEdges(
        std::vector<EdgeUpdate>(all.begin(), all.begin() + half), &err))
        << err;
    ASSERT_TRUE(client.WaitApplied(half, &err)) << err;

    // Crash: no flush, no boundary snapshot. Recovery must rebuild from the
    // journal prefix + the last cadence snapshot.
    server->Kill();
    server = std::make_unique<Server>(DurableOptions(paths, kind));
    ASSERT_TRUE(server->Start(&err)) << err;
    EXPECT_EQ(server->applied_records(), half)
        << "journal replay lost or invented records";

    client.set_port(server->port());
    ASSERT_TRUE(client.StreamEdges(
        std::vector<EdgeUpdate>(all.begin() + half, all.end()), &err))
        << err;
    ASSERT_TRUE(client.WaitApplied(all.size(), &err)) << err;
    client.Close();
    server->Drain();

    const NotifySeq oracle = OracleSequence(kind, w);
    EXPECT_FALSE(oracle.empty());
    EXPECT_EQ(collector.Take(), oracle);
    // applied_records counts recovered + new: the full stream, exactly once.
    EXPECT_EQ(server->stats().records_applied, all.size());
  }
}

/// The snapshot cadence counts records: snapshot_every_windows full windows'
/// worth. A light load applies every record as its own window, and must not
/// snapshot (and fsync the journal) once per two of them.
TEST(ServerResume, SnapshotCadenceCountsRecordsNotWindows) {
  const workload::Workload w = MakeWorkload(64);
  Paths paths("cadence");
  // batch_window 16 x snapshot_every_windows 2: one snapshot per 32 records.
  Server server(DurableOptions(paths, EngineKind::kTricPlus));
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  Client client(FastClientOptions(server.port()));
  ASSERT_TRUE(client.Connect(&err)) << err;
  client.SetDictionary(DictOf(*w.interner));
  const std::vector<EdgeUpdate>& all = w.stream.updates();
  ASSERT_EQ(all.size(), 64u);
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_TRUE(client.StreamEdges({all[i]}, &err)) << err;
    for (int spin = 0; server.applied_records() < i + 1 && spin < 10000; ++spin)
      ::usleep(1000);
    ASSERT_EQ(server.applied_records(), i + 1);
  }
  // The window holding record 64 writes its snapshot after publishing the
  // applied count.
  for (int spin = 0; server.stats().snapshots_written < 2 && spin < 5000; ++spin)
    ::usleep(1000);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.windows_finalized, 64u) << "records did not apply one by one";
  EXPECT_EQ(stats.snapshots_written, 2u);
  client.Close();
  server.Drain();
}

/// Network-side fault family: the client's reconnect-resume machinery must
/// converge to the oracle sequence through torn frames, duplicated frames,
/// reordered frames (which the server rejects as sequence gaps), stalled
/// links, and connections reset mid-handshake.
TEST(ServerResume, WireFaultsStillConvergeToOracle) {
  const workload::Workload w = MakeWorkload(400, /*seed=*/17);
  ServerOptions sopts;
  sopts.port = 0;
  sopts.batch_window = 16;
  sopts.heartbeat_millis = 50;
  Server server(sopts);
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  ClientOptions copts = FastClientOptions(server.port());
  copts.edges_per_frame = 16;  // many frames => every fault kind fires
  copts.faults.tear_frame = 5;
  copts.faults.dup_every = 5;
  copts.faults.reorder_every = 7;
  copts.faults.delay_every = 9;
  copts.faults.delay_micros = 500;
  copts.faults.handshake_resets = 2;
  copts.fault_seed = 23;
  copts.max_reconnects = 20;
  Client client(copts);
  Collector collector;
  collector.Bind(client);
  ASSERT_TRUE(client.Connect(&err)) << err;
  SubscribeAll(client);
  client.SetDictionary(DictOf(*w.interner));
  ASSERT_TRUE(client.StreamEdges(w.stream.updates(), &err)) << err;
  const bool applied_ok = client.WaitApplied(w.stream.size(), &err);
  if (!applied_ok) {
    // Counter snapshot localizes where records went missing: accepted <
    // applied target means the wire lost them, accepted == target but
    // applied short means the apply pipeline wedged.
    const ServerStats ss = server.stats();
    const ClientStats cs = client.stats();
    ASSERT_TRUE(applied_ok)
        << err << " [server: accepted=" << ss.records_accepted
        << " applied=" << ss.records_applied
        << " dup_skipped=" << ss.duplicate_records_skipped
        << " protocol_errors=" << ss.protocol_errors
        << " windows=" << ss.windows_finalized
        << "; client: sent=" << cs.records_sent
        << " connects=" << cs.connects << " reconnects=" << cs.reconnects
        << " torn=" << cs.faults_torn << " dup=" << cs.faults_duplicated
        << " reorder=" << cs.faults_reordered << "]";
  }
  client.Close();
  server.Drain();

  // Convergence despite the chaos…
  EXPECT_EQ(server.stats().records_applied, w.stream.size());
  EXPECT_EQ(collector.Take(), OracleSequence(EngineKind::kTricPlus, w));

  // …and the chaos actually happened.
  const ClientStats cs = client.stats();
  EXPECT_EQ(cs.handshake_resets, 2u);
  EXPECT_GE(cs.faults_torn, 1u);
  EXPECT_GE(cs.faults_duplicated, 1u);
  EXPECT_GE(cs.faults_reordered, 1u);
  EXPECT_GE(cs.reconnects, 3u);  // resets + torn/reordered disconnects
  EXPECT_GT(server.stats().duplicate_records_skipped, 0u)
      << "at-least-once resend overlap never exercised";
}

/// Mid-stream subscription + crash: recovery must re-register each
/// subscription at its original registration offset, not at record 0. The
/// stream is hand-built so the subscribed pattern matches at known indices:
/// a late subscriber whose pattern matched records *before* it registered
/// must recover cleanly (registering it early would diverge the boundary
/// counter/fingerprint cross-check) and must never be sent notifications
/// from before its registration — neither live nor from the rebuilt,
/// registration-offset-filtered notification log it resumes against.
TEST(ServerResume, MidStreamSubscriberRecoveryFiltersByRegistrationOffset) {
  const char* kLikes = "(?a)-[likes]->(?m)";
  std::vector<std::string> dict;
  auto intern = [&dict](const std::string& s) {
    for (uint32_t i = 0; i < dict.size(); ++i)
      if (dict[i] == s) return i;
    dict.push_back(s);
    return static_cast<uint32_t>(dict.size() - 1);
  };
  const uint32_t likes = intern("likes");
  const uint32_t knows = intern("knows");
  // Fresh endpoints per edge: every 'likes' edge is exactly one new
  // embedding of kLikes, and 'knows' filler matches nothing.
  std::vector<EdgeUpdate> edges;
  std::vector<uint64_t> like_indices;
  auto add_like = [&]() {
    const size_t n = edges.size();
    like_indices.push_back(n);
    edges.push_back({intern("a" + std::to_string(n)), likes,
                     intern("m" + std::to_string(n))});
  };
  auto add_filler = [&]() {
    const size_t n = edges.size();
    edges.push_back({intern("x" + std::to_string(n)), knows,
                     intern("y" + std::to_string(n))});
  };
  // Phase A [0, 32): pre-registration matches the late subscriber must
  // never see.
  for (size_t i = 0; i < 32; ++i)
    (i % 8 == 5) ? add_like() : add_filler();
  const size_t kRegisterAt = 32;
  // Phase B [32, 96): match-free filler; spans several snapshot cadences so
  // the late subscription is durably persisted before the crash.
  while (edges.size() < 96) add_filler();
  // Phase C [96, 112): post-restart matches both subscribers receive.
  std::vector<EdgeUpdate> tail;
  {
    const size_t start = edges.size();
    for (size_t i = 0; i < 16; ++i)
      (i == 4 || i == 9) ? add_like() : add_filler();
    tail.assign(edges.begin() + start, edges.end());
    edges.resize(start);
  }

  Paths paths("mid_sub");
  auto server =
      std::make_unique<Server>(DurableOptions(paths, EngineKind::kTricPlus));
  std::string err;
  ASSERT_TRUE(server->Start(&err)) << err;

  Client c1(FastClientOptions(server->port(), "c1"));
  Collector col1;
  col1.Bind(c1);
  ASSERT_TRUE(c1.Connect(&err)) << err;
  {
    SubAckMsg ack;
    ASSERT_TRUE(c1.Subscribe(0, kLikes, &ack, &err)) << err;
    ASSERT_EQ(ack.status, static_cast<uint8_t>(SubStatus::kNew));
  }
  c1.SetDictionary(dict);
  ASSERT_TRUE(c1.StreamEdges(
      std::vector<EdgeUpdate>(edges.begin(), edges.begin() + kRegisterAt),
      &err))
      << err;
  ASSERT_TRUE(c1.WaitApplied(kRegisterAt, &err)) << err;

  // The late subscriber: same pattern, registered at offset 32.
  Client c2(FastClientOptions(server->port(), "c2"));
  Collector col2;
  col2.Bind(c2);
  ASSERT_TRUE(c2.Connect(&err)) << err;
  {
    SubAckMsg ack;
    ASSERT_TRUE(c2.Subscribe(0, kLikes, &ack, &err)) << err;
    ASSERT_EQ(ack.status, static_cast<uint8_t>(SubStatus::kNew));
  }

  ASSERT_TRUE(c1.StreamEdges(
      std::vector<EdgeUpdate>(edges.begin() + kRegisterAt, edges.end()),
      &err))
      << err;
  ASSERT_TRUE(c1.WaitApplied(edges.size(), &err)) << err;

  // Crash. Recovery fast-forwards the journal; it must register c2's query
  // at offset 32, or phase A's matches diverge the boundary cross-check and
  // recovery itself fails here.
  server->Kill();
  server =
      std::make_unique<Server>(DurableOptions(paths, EngineKind::kTricPlus));
  ASSERT_TRUE(server->Start(&err)) << err;
  EXPECT_EQ(server->applied_records(), edges.size());

  // c2 reconnects having seen nothing: Hello.resume_notify = 0 asks for the
  // whole rebuilt notification log. The registration-offset filter must
  // leave nothing for it (phase A predates its registration; phases B on
  // are match-free so far).
  c2.set_port(server->port());
  // Connect may no-op until the client's reader notices the dead socket;
  // the restarted server's applied count in the hello ack proves a fresh
  // handshake (and thus the notify-log replay) actually happened.
  bool rehandshaked = false;
  for (int i = 0; i < 200 && !rehandshaked; ++i) {
    ASSERT_TRUE(c2.Connect(&err)) << err;
    rehandshaked = c2.last_hello_ack().applied_records >= edges.size();
    if (!rehandshaked) ::usleep(10 * 1000);
  }
  ASSERT_TRUE(rehandshaked);

  c1.set_port(server->port());
  ASSERT_TRUE(c1.StreamEdges(tail, &err)) << err;
  ASSERT_TRUE(c1.WaitApplied(edges.size() + tail.size(), &err)) << err;

  // c2's notifications arrive on a push channel it never synchronizes on;
  // poll until the expected two phase-C entries land.
  for (int i = 0; i < 200 && col2.Take().size() < 2; ++i) ::usleep(10 * 1000);
  c1.Close();
  c2.Close();
  server->Drain();

  NotifySeq expect_c1, expect_c2;
  for (uint64_t idx : like_indices) {
    expect_c1[idx] = {{0u, 1u}};
    if (idx >= kRegisterAt) expect_c2[idx] = {{0u, 1u}};
  }
  EXPECT_EQ(col1.Take(), expect_c1);
  EXPECT_EQ(col2.Take(), expect_c2);
}

/// Recovery sanity: a journal written by one engine kind must refuse to
/// restart under another (replaying tric+ windows into inv would silently
/// rebuild different view state).
TEST(ServerResume, WrongEngineRecoveryIsRejected) {
  const workload::Workload w = MakeWorkload(200);
  Paths paths("wrong_engine");
  {
    Server server(DurableOptions(paths, EngineKind::kTricPlus));
    std::string err;
    ASSERT_TRUE(server.Start(&err)) << err;
    Client client(FastClientOptions(server.port()));
    ASSERT_TRUE(client.Connect(&err)) << err;
    client.SetDictionary(DictOf(*w.interner));
    ASSERT_TRUE(client.StreamEdges(w.stream.updates(), &err)) << err;
    ASSERT_TRUE(client.WaitApplied(w.stream.size(), &err)) << err;
    client.Close();
    server.Drain();
  }
  Server wrong(DurableOptions(paths, EngineKind::kInv));
  std::string err;
  EXPECT_FALSE(wrong.Start(&err));
  EXPECT_NE(err.find("engine"), std::string::npos) << err;
}

/// Graceful SIGTERM drain: the boundary snapshot is written, clients get the
/// Drain frame, and a restart resumes exactly where the drain stopped —
/// including a subscriber that reconnects and keeps receiving.
TEST(ServerResume, DrainThenRestartResumesExactly) {
  const workload::Workload w = MakeWorkload(400);
  const size_t half = w.stream.size() / 2;
  const std::vector<EdgeUpdate>& all = w.stream.updates();
  Paths paths("drain_restart");

  auto server =
      std::make_unique<Server>(DurableOptions(paths, EngineKind::kTricPlus));
  std::string err;
  ASSERT_TRUE(server->Start(&err)) << err;

  Client client(FastClientOptions(server->port()));
  Collector collector;
  collector.Bind(client);
  DrainMsg drain_msg;
  std::mutex drain_mu;
  client.OnDrain([&](const DrainMsg& m) {
    std::lock_guard<std::mutex> lock(drain_mu);
    drain_msg = m;
  });
  ASSERT_TRUE(client.Connect(&err)) << err;
  SubscribeAll(client);
  client.SetDictionary(DictOf(*w.interner));
  ASSERT_TRUE(client.StreamEdges(
      std::vector<EdgeUpdate>(all.begin(), all.begin() + half), &err))
      << err;
  ASSERT_TRUE(client.WaitApplied(half, &err)) << err;

  server->Drain();
  for (int i = 0; i < 200 && !client.drained(); ++i) ::usleep(10 * 1000);
  ASSERT_TRUE(client.drained());
  {
    std::lock_guard<std::mutex> lock(drain_mu);
    EXPECT_EQ(drain_msg.applied_records, half);
    EXPECT_EQ(drain_msg.snapshot_written, 1);
  }

  server = std::make_unique<Server>(
      DurableOptions(paths, EngineKind::kTricPlus));
  ASSERT_TRUE(server->Start(&err)) << err;
  // The boundary snapshot covers the full drained prefix, so the restarted
  // server recovers exactly `half` without inventing or losing records.
  EXPECT_EQ(server->applied_records(), half);

  client.set_port(server->port());
  ASSERT_TRUE(client.StreamEdges(
      std::vector<EdgeUpdate>(all.begin() + half, all.end()), &err))
      << err;
  ASSERT_TRUE(client.WaitApplied(all.size(), &err)) << err;
  client.Close();
  server->Drain();

  EXPECT_EQ(collector.Take(), OracleSequence(EngineKind::kTricPlus, w));
}

}  // namespace
}  // namespace server
}  // namespace gstream
