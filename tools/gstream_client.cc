// gstream_client — command-line client for gstream_server: registers query
// subscriptions, streams a CSV edge file (or a built-in generated workload)
// through the wire protocol, waits until the server acks every record as
// applied, and prints greppable counters. The --fault-* flags inject
// network-side faults (torn/duplicated/reordered/delayed frames, handshake
// resets) into the outgoing stream; the client's reconnect-resume machinery
// must deliver the same applied state regardless.
//
// Usage:
//   gstream_client --port=N [--host=127.0.0.1] [--name=client]
//                  [--stream=FILE.csv | --dataset=snb --updates=N --seed=N]
//                  [--queries=FILE]           # one pattern per line
//                  [--wait-drain]             # block until the server drains
//                  [--fault-tear=N] [--fault-dup=N] [--fault-reorder=N]
//                  [--fault-delay=N --fault-delay-micros=U]
//                  [--fault-resets=N] [--fault-seed=N]
//                  [--heartbeat-millis=N] [--timeout-millis=N]
//                  [--max-reconnects=N]
//
// An unknown flag is named on stderr and exits 2.

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "ingest/csv_stream.h"
#include "server/client.h"
#include "workload/snb.h"

using namespace gstream;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const std::string unknown = flags.FirstUnknown(
      {"port", "host", "name", "stream", "dataset", "updates", "seed",
       "queries", "wait-drain", "fault-tear", "fault-dup", "fault-reorder",
       "fault-delay", "fault-delay-micros", "fault-resets", "fault-seed",
       "heartbeat-millis", "timeout-millis", "max-reconnects"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "gstream_client: unknown flag --%s\n", unknown.c_str());
    return 2;
  }
  const int port = static_cast<int>(flags.GetInt("port", 0));
  if (port <= 0) {
    std::fprintf(stderr, "usage: gstream_client --port=N [options]\n");
    return 2;
  }

  server::ClientOptions opts;
  opts.host = flags.GetString("host", "127.0.0.1");
  opts.port = port;
  opts.name = flags.GetString("name", "client");
  opts.heartbeat_millis =
      static_cast<int>(flags.GetPositiveInt("heartbeat-millis", 500));
  opts.call_timeout_millis =
      static_cast<int>(flags.GetPositiveInt("timeout-millis", 30000));
  opts.max_reconnects =
      static_cast<int>(flags.GetPositiveInt("max-reconnects", 10));
  opts.faults.tear_frame =
      static_cast<uint64_t>(flags.GetIntAtLeast("fault-tear", 0, 0));
  opts.faults.dup_every =
      static_cast<uint64_t>(flags.GetIntAtLeast("fault-dup", 0, 0));
  opts.faults.reorder_every =
      static_cast<uint64_t>(flags.GetIntAtLeast("fault-reorder", 0, 0));
  opts.faults.delay_every =
      static_cast<uint64_t>(flags.GetIntAtLeast("fault-delay", 0, 0));
  opts.faults.delay_micros =
      static_cast<int>(flags.GetIntAtLeast("fault-delay-micros", 1000, 0));
  opts.faults.handshake_resets =
      static_cast<uint32_t>(flags.GetIntAtLeast("fault-resets", 0, 0));
  opts.fault_seed = static_cast<uint64_t>(flags.GetInt("fault-seed", 1));

  server::Client client(opts);
  uint64_t notify_count = 0;
  client.OnNotify([&notify_count](const server::NotifyMsg&) { ++notify_count; });

  std::string error;
  if (!client.Connect(&error)) {
    std::fprintf(stderr, "gstream_client: %s\n", error.c_str());
    return 2;
  }

  // Subscriptions first, so notifications cover the whole streamed prefix.
  const std::string queries_file = flags.GetString("queries", "");
  if (!queries_file.empty()) {
    std::FILE* f = std::fopen(queries_file.c_str(), "r");
    if (f == nullptr) {
      std::fprintf(stderr, "gstream_client: cannot open %s\n",
                   queries_file.c_str());
      return 2;
    }
    char line[4096];
    uint32_t sub_id = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      std::string pattern(line);
      while (!pattern.empty() &&
             (pattern.back() == '\n' || pattern.back() == '\r'))
        pattern.pop_back();
      if (pattern.empty() || pattern[0] == '#') continue;
      server::SubAckMsg ack;
      if (!client.Subscribe(sub_id, pattern, &ack, &error)) {
        std::fprintf(stderr, "gstream_client: subscribe: %s\n", error.c_str());
        std::fclose(f);
        return 2;
      }
      if (ack.status == static_cast<uint8_t>(server::SubStatus::kError)) {
        std::fprintf(stderr, "gstream_client: pattern rejected: %s\n",
                     ack.message.c_str());
        std::fclose(f);
        return 2;
      }
      std::printf("subscribed sub_id=%u qid=%u\n", sub_id, ack.qid);
      ++sub_id;
    }
    std::fclose(f);
  }

  // Build the edge stream: a CSV file or a generated workload.
  auto interner = std::make_shared<StringInterner>();
  UpdateStream stream(interner);
  const std::string stream_file = flags.GetString("stream", "");
  if (!stream_file.empty()) {
    if (!ingest::LoadCsvStream(stream_file, *interner, stream)) {
      std::fprintf(stderr, "gstream_client: cannot load %s\n",
                   stream_file.c_str());
      return 2;
    }
  } else if (flags.Has("dataset") || flags.Has("updates")) {
    workload::SnbConfig c;
    c.num_updates = static_cast<size_t>(flags.GetPositiveInt("updates", 10000));
    c.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    workload::Workload w = workload::GenerateSnb(c);
    interner = w.interner;
    stream = w.stream;
  }

  if (stream.size() > 0) {
    std::vector<std::string> dict;
    dict.reserve(interner->size());
    for (uint32_t id = 0; id < interner->size(); ++id)
      dict.push_back(interner->Lookup(id));
    client.SetDictionary(std::move(dict));
    if (!client.StreamEdges(stream.updates(), &error)) {
      std::fprintf(stderr, "gstream_client: stream: %s\n", error.c_str());
      return 2;
    }
    if (!client.WaitApplied(stream.size(), &error)) {
      std::fprintf(stderr, "gstream_client: wait: %s\n", error.c_str());
      return 2;
    }
  }

  if (flags.GetBool("wait-drain", false)) {
    // Sit attached until the server announces its drain boundary (bounded by
    // the call timeout so a vanished server cannot wedge us).
    for (int waited = 0;
         !client.drained() && waited < opts.call_timeout_millis; waited += 50)
      ::usleep(50 * 1000);
  }

  const server::ClientStats s = client.stats();
  std::printf("client exit: connects=%llu reconnects=%llu\n",
              (unsigned long long)s.connects, (unsigned long long)s.reconnects);
  std::printf("client exit: records_sent=%llu notifies=%llu drained=%d\n",
              (unsigned long long)s.records_sent,
              (unsigned long long)s.notifies, client.drained() ? 1 : 0);
  std::printf("client exit: faults_torn=%llu faults_duplicated=%llu "
              "faults_reordered=%llu handshake_resets=%llu "
              "server_errors=%llu\n",
              (unsigned long long)s.faults_torn,
              (unsigned long long)s.faults_duplicated,
              (unsigned long long)s.faults_reordered,
              (unsigned long long)s.handshake_resets,
              (unsigned long long)s.server_errors);
  std::fflush(stdout);
  client.Close();
  return 0;
}
