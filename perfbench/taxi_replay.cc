// taxi-window-replay: the deletion-heavy steady state. Taxi records are
// timestamped at two per second and encoded once into an in-memory `.gsb`;
// every pass opens an IngestSession over it and replays it with two decode
// threads, windows of 32 and a one-hour event-time window, so most edges
// expire during the run. This is the only workload through the ingest decode,
// the decode->apply ring and the expiry splice.

#include <cstdio>
#include <vector>

#include "engine/driver.h"
#include "ingest/gsb_reader.h"
#include "ingest/gsb_writer.h"
#include "ingest/pipeline.h"
#include "inputs.h"
#include "time/windowed_stream.h"
#include "workload/taxi.h"
#include "workloads.h"

namespace perfbench {

using gstream::QueryId;
using gstream::StreamEvent;
using gstream::UpdateResult;
namespace ingest = gstream::ingest;
namespace temporal = gstream::temporal;
namespace wl = gstream::workload;

namespace {

constexpr size_t kRecords = 20'000;
constexpr size_t kQueries = 1000;
constexpr uint64_t kTripsPerSecond = 2;
constexpr uint64_t kWindowSeconds = 3600;
constexpr int kReaderThreads = 2;
constexpr size_t kBatch = 32;
/// Extra engine set-ups after every pass of an untraced run, so setup_s is a
/// median of many set-ups spread over the whole run.
constexpr int kExtraSetups = 6;

temporal::WindowConfig HourWindow() {
  temporal::WindowConfig window;
  window.policy = temporal::WindowPolicy::kTime;
  window.width = kWindowSeconds;
  return window;
}

}  // namespace

void RunTaxiWindowReplay(const Args& args, Report& report) {
  const auto gen0 = Clock::now();
  wl::TaxiConfig tc;
  tc.num_updates = kRecords;
  tc.seed = kStructureSeed;
  const wl::Workload w = wl::GenerateTaxi(tc);
  const wl::QuerySet qs = wl::GenerateQueries(w, PaperQueryConfig(kQueries));
  Inputs in = Relabel(w, qs, args.seed);
  std::vector<gstream::EdgeUpdate>& records = in.updates;
  for (size_t i = 0; i < records.size(); ++i) records[i].ts = i / kTripsPerSecond;
  // The dictionary holds every name the queries use, so the session's
  // interner reproduces the patterns' ids.
  const ingest::MemorySource gsb(ingest::EncodeGsb(*in.interner, records));
  const double gen_s = SecondsSince(gen0);

  ingest::IngestOptions opts;
  opts.batch_window = kBatch;
  opts.reader_threads = kReaderThreads;
  opts.on_corrupt = ingest::CorruptPolicy::kFail;
  opts.window = HourWindow();

  std::vector<double> setup_s, open_s, upd_per_s, memory;
  PassPercentiles result_us, notify_us, add_ms, remove_ms;
  ResultDigest digest;
  ingest::IngestStats first;
  uint64_t header_count = 0;
  uint64_t attempted = 0, not_applied = 0;

  // The host's CPUs are not equally fast, and which are slow changes from
  // one second to the next: on a shared host a CPU whose sibling is busy
  // runs this workload 25-60% slower, and the kernel does not move a thread
  // off it. Each pass, its query removals and each extra set-up therefore run
  // pinned to the CPU on which registering the query set was fastest just
  // before.
  const std::vector<int> cpus = AllowedCpus();
  const auto probe = [&] {
    std::unique_ptr<ProbeEngine> scratch = MakeTricPlus();
    const auto t0 = Clock::now();
    for (size_t i = 0; i < in.queries.size(); ++i)
      scratch->AddQuery(in.qids[i], in.queries[i]);
    return SecondsSince(t0);
  };
  const auto quietest = [&] { return QuietestCpu(cpus, probe); };

  // Engine creation, `.gsb` open and query registration: the set-up every
  // pass pays before its first timed record. Each AddQuery call's time goes
  // to `add`.
  const auto set_up = [&](std::unique_ptr<ProbeEngine>& engine,
                          ingest::IngestSession& session, Samples& add) {
    engine.reset();  // free the old engine first, so its memory is reused
    Tracer::Scope setup("setup");
    const auto t0 = Clock::now();
    engine = MakeTricPlus();
    {
      Tracer::Scope open("ingest.open");
      const auto o0 = Clock::now();
      if (!session.Open(gsb, ingest::CorruptPolicy::kFail)) {
        std::fprintf(stderr, "taxi-window-replay: open failed: %s\n",
                     session.error().c_str());
      }
      open_s.push_back(SecondsSince(o0));
    }
    for (size_t i = 0; i < in.queries.size(); ++i)
      engine->AddQuery(in.qids[i], in.queries[i]);
    setup_s.push_back(SecondsSince(t0));
    add.Append(engine->add_query_ms());
  };

  const auto pass = [&](int index, int batch_threads, const std::vector<int>& pin) {
    const CpuPin pinned(pin);  // Replay's reader threads inherit the pin
    Tracer::Scope span("pass");
    std::unique_ptr<ProbeEngine> engine;
    ingest::IngestSession session;
    const auto t0 = Clock::now();
    Samples add;
    set_up(engine, session, add);

    ingest::ResultCallback cb;
    if (index == 0) cb = [&](uint64_t i, const UpdateResult& r) { digest.Add(i, r); };
    const auto r0 = Clock::now();
    ingest::IngestOptions o = opts;
    o.batch_threads = batch_threads;
    ingest::IngestStats s;
    {
      Tracer::Scope replay("ingest.replay");
      s = session.Replay(*engine, o, cb);
    }
    const double replay_s = SecondsSince(r0);
    if (index == 0) {
      first = s;
      header_count = session.header().record_count;
    }
    attempted += records.size();
    not_applied += records.size() - s.run.updates_applied;
    upd_per_s.push_back(s.run.updates_applied / replay_s);
    memory.push_back(static_cast<double>(engine->MemoryBytes()));
    result_us.Add(engine->result_latency_us());
    notify_us.Add(engine->notify_latency_us());
    {
      const CpuPin quiet(quietest());  // the pass's CPU may have slowed since
      for (QueryId qid : in.qids) engine->RemoveQuery(qid);
    }
    remove_ms.Add(engine->remove_query_ms());
    if (Tracer::active() != nullptr) {
      ReportEngineCounters(*engine, report);
      const double pushes = static_cast<double>(s.ring.batches_pushed);
      report.Set("ingest.ring_blocked_push_ratio",
                 pushes > 0 ? s.ring.blocked_pushes / pushes : 0.0, "ratio");
      report.Set("ingest.ring_max_occupancy", static_cast<double>(s.ring.max_occupancy),
                 "count");
    }
    if (batch_threads > 1) ReportSchedulerCounters(*engine, report);
    const double seconds = SecondsSince(t0);
    for (int i = 0; i < kExtraSetups && !args.trace; ++i) {
      const CpuPin quiet(quietest());
      ingest::IngestSession extra;
      set_up(engine, extra, add);
    }
    add_ms.Add(add);
    return seconds;
  };

  // The explicit-deletion expansion of the same stream: the reference the
  // replay is checked against, and the time layer's own cost.
  std::vector<StreamEvent> events;
  events.reserve(records.size());
  for (const gstream::EdgeUpdate& u : records) events.push_back(StreamEvent::Update(u));
  const auto materialize = [&] {
    Tracer::Scope span("time.expiry");
    return temporal::MaterializeExpiryOracle(events, HourWindow());
  };

  temporal::ExpiryOracle oracle;
  if (args.trace) {
    // A first untraced pass (cold, and the one whose results are checked),
    // the traced pass, and a warm untraced pass to compare it with, all on
    // one CPU.
    const std::vector<int> one = quietest();
    pass(0, 1, one);
    Tracer tracer;
    Tracer::Activate(&tracer);
    pass(1, 1, one);
    oracle = materialize();
    Tracer::Activate(nullptr);
    const double traced = upd_per_s.back();
    pass(1, 1, one);
    const double untraced = upd_per_s.back();
    // The scheduler layer, which the measured replay (one batch thread)
    // bypasses: the same replay with its windows on two batch threads,
    // unpinned.
    pass(1, 2, {});
    report.Set("scheduler.speedup_2v1", upd_per_s.back() / untraced, "ratio");
    ReportTraceTotals(tracer, report);
    report.Set("ingest.open_s", open_s.back(), "s");
    report.Set("ingest.replay_self_s", tracer.SelfSeconds("ingest.replay"), "s");
    report.Set("time.expiry_s", tracer.TotalSeconds("time.expiry"), "s");
    report.Set("time.expired_edges", static_cast<double>(oracle.expired_edges), "count");
    report.Set("time.expiry_batches", static_cast<double>(oracle.expiry_batches),
               "count");
    report.Set("trace.overhead_ratio", untraced / traced - 1, "ratio");
    if (!args.trace_out.empty()) tracer.WriteCsv(args.trace_out);
  } else {
    const int passes = RepeatPasses(args.seconds, [&](int i) { return pass(i, 1, quietest()); });
    std::fprintf(stderr, "taxi-window-replay: %d passes of %zu records, %zu queries\n",
                 passes, records.size(), in.queries.size());
    report.Set("updates_per_s", Median(upd_per_s), "1/s");
    ReportLatencies(result_us, notify_us, add_ms, remove_ms, report);
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("engine_memory_bytes", Median(memory), "bytes");
    report.Set("peak_rss_bytes", PeakRssBytes(), "bytes");
    oracle = materialize();
  }
  report.Set("workload.gen_s", gen_s, "s");

  // Output check: RunMixedStream over the explicit-deletion expansion,
  // projected back onto the original records.
  std::unique_ptr<ProbeEngine> ref = MakeTricPlus();
  for (size_t i = 0; i < in.queries.size(); ++i) ref->AddQuery(in.qids[i], in.queries[i]);
  ResultDigest expected;
  uint64_t event = 0, record = 0;
  ref->set_observer([&](const UpdateResult& r) {
    if (oracle.synthetic[event++] == 0) expected.Add(record++, r);
  });
  gstream::RunMixedStream(*ref, oracle.events, gstream::RunConfig{});

  report.Check(digest.value() == expected.value() && record == records.size() &&
                   expected.pairs() > 0,
               "taxi-window-replay digest == RunMixedStream over the expiry "
               "expansion (" +
                   std::to_string(digest.pairs()) + " vs " +
                   std::to_string(expected.pairs()) + " notifications)");
  report.Check(first.run.updates_applied + first.ring.records_shed +
                       first.records_missing ==
                   header_count &&
                   header_count == records.size() &&
                   first.ring.records_shed == 0 && first.records_missing == 0 &&
                   !first.failed,
               "taxi-window-replay applied + shed + missing == header count, "
               "shed = missing = 0");
  report.Check(first.ingested_edges ==
                       first.live_edges + first.expired_edges + first.removed_edges &&
                   first.expired_edges == oracle.expired_edges &&
                   first.expired_edges > 0,
               "taxi-window-replay ingested == live + expired + removed (" +
                   std::to_string(first.expired_edges) + " expired)");
  report.attempted += attempted + expected.pairs();
  report.failed += not_applied + (digest.value() == expected.value() ? 0 : 1);
}

}  // namespace perfbench
