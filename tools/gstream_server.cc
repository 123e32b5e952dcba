// gstream_server — the resilient streaming front-end (DESIGN.md §11): a
// TCP server that accepts concurrent edge producers and query subscribers
// speaking the length-framed wire protocol, multiplexes edge streams into
// the bounded ingest ring behind one continuous engine, and pushes per-query
// match notifications back. SIGTERM/SIGINT trigger a graceful drain: stop
// accepting, flush the final partial window, write a boundary snapshot (when
// durability is configured), send every client a Drain frame, then exit.
//
// Usage:
//   gstream_server [--engine=tric+] [--host=127.0.0.1] [--port=0]
//                  [--window=N] [--threads=N] [--ring-capacity=N]
//                  [--overload=block|shed|failfast]
//                  [--slow-client=block|shed|disconnect]
//                  [--outbound-capacity=N] [--sndbuf-bytes=N]
//                  [--heartbeat-millis=N] [--idle-timeout-millis=N]
//                  [--shared-finalize=true|false]
//                  [--journal=FILE.gsb --state=FILE.state]
//                  [--snapshot-every=WINDOWS]
//                  [--window-policy=none|time|count|label-ttl]
//                  [--window-width=N]
//
// An engine window applies when it holds --window records, or as soon as no
// further record is queued: a lone record is applied and notified at once,
// while a saturated stream keeps windows full. --snapshot-every counts full
// windows' worth of records (WINDOWS x --window) between snapshots.
//
// Prints "server listening port=NNNN" once bound (port 0 = ephemeral), and
// greppable "server exit:" counter lines on shutdown. An unknown flag is
// named on stderr and exits 2.

#include <signal.h>

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "ingest/ring_buffer.h"
#include "server/server.h"

using namespace gstream;

namespace {

EngineKind ParseEngine(const std::string& name) {
  if (name == "tric") return EngineKind::kTric;
  if (name == "tric+") return EngineKind::kTricPlus;
  if (name == "inv") return EngineKind::kInv;
  if (name == "inv+") return EngineKind::kInvPlus;
  if (name == "inc") return EngineKind::kInc;
  if (name == "inc+") return EngineKind::kIncPlus;
  if (name == "graphdb") return EngineKind::kGraphDb;
  std::fprintf(stderr, "unknown engine '%s', using tric+\n", name.c_str());
  return EngineKind::kTricPlus;
}

bool ParseOverload(const std::string& name, ingest::OverloadPolicy* out) {
  if (name == "block") *out = ingest::OverloadPolicy::kBlock;
  else if (name == "shed") *out = ingest::OverloadPolicy::kShed;
  else if (name == "failfast") *out = ingest::OverloadPolicy::kFailFast;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Block the shutdown signals in every thread (the server's threads inherit
  // this mask); main sigwait()s for them below.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  Flags flags = Flags::Parse(argc, argv);
  const std::string unknown = flags.FirstUnknown(
      {"host", "port", "engine", "window", "threads", "shared-finalize",
       "ring-capacity", "overload", "slow-client", "outbound-capacity",
       "sndbuf-bytes", "heartbeat-millis", "idle-timeout-millis", "journal",
       "state", "snapshot-every", "window-policy", "window-width"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "gstream_server: unknown flag --%s\n", unknown.c_str());
    return 2;
  }
  server::ServerOptions opts;
  opts.host = flags.GetString("host", "127.0.0.1");
  opts.port = static_cast<int>(flags.GetIntAtLeast("port", 0, 0));
  opts.engine = ParseEngine(flags.GetString("engine", "tric+"));
  opts.batch_window = static_cast<size_t>(flags.GetPositiveInt("window", 32));
  opts.batch_threads = static_cast<int>(flags.GetPositiveInt("threads", 1));
  opts.shared_finalize = flags.GetBool("shared-finalize", true);
  opts.ring_capacity =
      static_cast<size_t>(flags.GetPositiveInt("ring-capacity", 8));
  if (!ParseOverload(flags.GetString("overload", "block"),
                     &opts.ingest_overload)) {
    std::fprintf(stderr, "unknown --overload (block|shed|failfast)\n");
    return 2;
  }
  if (!server::ParseSlowClientPolicy(flags.GetString("slow-client", "block"),
                                     &opts.slow_client)) {
    std::fprintf(stderr, "unknown --slow-client (block|shed|disconnect)\n");
    return 2;
  }
  opts.outbound_capacity =
      static_cast<size_t>(flags.GetPositiveInt("outbound-capacity", 256));
  opts.sndbuf_bytes =
      static_cast<int>(flags.GetIntAtLeast("sndbuf-bytes", 0, 0));
  opts.heartbeat_millis =
      static_cast<int>(flags.GetPositiveInt("heartbeat-millis", 1000));
  opts.idle_timeout_millis =
      static_cast<int>(flags.GetPositiveInt("idle-timeout-millis", 10000));
  opts.journal_path = flags.GetString("journal", "");
  opts.state_path = flags.GetString("state", "");
  opts.snapshot_every_windows =
      static_cast<uint64_t>(flags.GetIntAtLeast("snapshot-every", 0, 0));
  if (!temporal::ParseWindowPolicy(flags.GetString("window-policy", "none"),
                                   &opts.window.policy)) {
    std::fprintf(stderr, "unknown --window-policy (none|time|count|label-ttl)\n");
    return 2;
  }
  opts.window.width =
      static_cast<uint64_t>(flags.GetIntAtLeast("window-width", 0, 0));

  server::Server server(opts);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "gstream_server: %s\n", error.c_str());
    return 2;
  }
  std::printf("server listening port=%d\n", server.port());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::fprintf(stderr, "gstream_server: signal %d, draining\n", sig);
  server.Drain();

  const server::ServerStats s = server.stats();
  std::printf("server exit: connections_accepted=%llu\n",
              (unsigned long long)s.connections_accepted);
  std::printf("server exit: records_accepted=%llu records_applied=%llu "
              "duplicate_records_skipped=%llu\n",
              (unsigned long long)s.records_accepted,
              (unsigned long long)s.records_applied,
              (unsigned long long)s.duplicate_records_skipped);
  std::printf("server exit: windows_finalized=%llu snapshots_written=%llu\n",
              (unsigned long long)s.windows_finalized,
              (unsigned long long)s.snapshots_written);
  std::printf("server exit: notifications_produced=%llu "
              "notifications_delivered=%llu notifications_shed=%llu\n",
              (unsigned long long)s.notifications_produced,
              (unsigned long long)s.notifications_delivered,
              (unsigned long long)s.notifications_shed);
  std::printf("server exit: protocol_errors=%llu idle_disconnects=%llu "
              "slow_disconnects=%llu\n",
              (unsigned long long)s.protocol_errors,
              (unsigned long long)s.idle_disconnects,
              (unsigned long long)s.slow_disconnects);
  if (opts.window.enabled())
    std::printf("server exit: expired_edges=%llu expiry_batches=%llu "
                "live_edges=%llu\n",
                (unsigned long long)s.expired_edges,
                (unsigned long long)s.expiry_batches,
                (unsigned long long)s.live_edges);
  std::fflush(stdout);
  return 0;
}
