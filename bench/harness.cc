#include "bench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/timer.h"
#include "workload/bio.h"
#include "workload/snb.h"
#include "workload/taxi.h"

namespace gstream {
namespace bench {

BenchOptions BenchOptions::FromArgs(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const std::string unknown = flags.FirstUnknown(
      {"full", "budget-sec", "cell-budget-sec", "seed", "csv", "batch",
       "threads", "no-shared-finalize", "no-route-index", "tenants", "help"});
  const bool usage_error = !unknown.empty();
  if (usage_error) std::fprintf(stderr, "unknown flag --%s\n", unknown.c_str());
  if (usage_error || flags.Has("help")) {
    std::fprintf(stderr,
                 "bench flags: --full --budget-sec=S --cell-budget-sec=S "
                 "--seed=N --csv --batch=N --threads=N --no-shared-finalize "
                 "--no-route-index --tenants=N\n");
    std::exit(usage_error ? 2 : 0);
  }
  BenchOptions opts;
  opts.full = flags.GetBool("full", false);
  opts.shared_finalize = !flags.GetBool("no-shared-finalize", false);
  opts.route_index = !flags.GetBool("no-route-index", false);
  opts.budget_seconds =
      flags.GetDouble("budget-sec", opts.full ? 86400.0 : 8.0);
  opts.cell_budget_seconds =
      flags.GetDouble("cell-budget-sec", opts.full ? 86400.0 : 2.0);
  opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  opts.csv = flags.GetBool("csv", false);
  // Rejects 0/negative/non-numeric values with a clear error (exit 2).
  opts.batch = static_cast<size_t>(flags.GetPositiveInt("batch", 1));
  opts.threads = static_cast<int>(flags.GetPositiveInt("threads", 1));
  opts.tenants = static_cast<size_t>(flags.GetPositiveInt("tenants", 1));
  return opts;
}

GrowthSeries RunGrowthSeries(EngineKind kind,
                             const std::vector<QueryPattern>& queries,
                             const UpdateStream& stream,
                             const std::vector<size_t>& checkpoints,
                             double budget_seconds, size_t batch, int threads,
                             bool shared_finalize, bool route_index) {
  GrowthSeries series;
  series.kind = kind;
  series.segment_ms.assign(checkpoints.size(), std::nan(""));
  series.partial.assign(checkpoints.size(), false);

  auto engine = CreateEngine(kind);
  engine->SetSharedFinalize(shared_finalize);
  engine->SetRouteIndex(route_index);
  series.index_stats = IndexQueries(*engine, queries);

  Budget budget;
  budget.SetDeadlineAfter(budget_seconds);
  engine->set_budget(&budget);
  if (batch > 1) engine->SetBatchThreads(threads);

  size_t pos = 0;
  bool dead = false;
  WallTimer total;
  for (size_t seg = 0; seg < checkpoints.size() && !dead; ++seg) {
    const size_t seg_end = checkpoints[seg];
    const size_t seg_begin = pos;
    WallTimer seg_timer;
    while (pos < seg_end && !dead) {
      if (batch <= 1) {
        UpdateResult result = engine->ApplyUpdate(stream[pos]);
        ++pos;
        series.new_embeddings += result.new_embeddings;
        if (result.timed_out || budget.ExceededNow()) dead = true;
        continue;
      }
      const size_t n = std::min(batch, seg_end - pos);
      std::vector<UpdateResult> results =
          engine->ApplyBatch(&stream.updates()[pos], n);
      pos += results.size();
      for (const UpdateResult& r : results) {
        series.new_embeddings += r.new_embeddings;
        if (r.timed_out) dead = true;
      }
      if (results.size() < n || budget.ExceededNow()) dead = true;
    }
    const size_t processed = pos - seg_begin;
    if (processed > 0) {
      const double seg_ms = seg_timer.ElapsedMillis();
      series.answer_millis += seg_ms;
      series.segment_ms[seg] = seg_ms / processed;
      series.partial[seg] = dead && pos < seg_end;
    }
  }
  series.updates_applied = pos;
  series.memory_bytes = engine->MemoryBytes();
  series.final_join_passes = engine->final_join_passes();
  series.shared_finalize_groups = engine->shared_finalize_groups();
  series.routed_candidates = engine->routed_candidates();
  series.prefilter_rejects = engine->prefilter_rejects();
  return series;
}

CellResult RunCell(EngineKind kind, const std::vector<QueryPattern>& queries,
                   const UpdateStream& stream, double budget_seconds,
                   size_t batch, int threads, bool shared_finalize,
                   bool route_index) {
  CellResult cell;
  auto engine = CreateEngine(kind);
  engine->SetSharedFinalize(shared_finalize);
  engine->SetRouteIndex(route_index);
  cell.index_stats = IndexQueries(*engine, queries);
  RunConfig config;
  config.budget_seconds = budget_seconds;
  config.batch_window = batch;
  config.batch_threads = threads;
  RunStats stats = RunStream(*engine, stream, config);
  cell.ms_per_update = stats.MsecPerUpdate();
  cell.partial = stats.timed_out;
  cell.updates_applied = stats.updates_applied;
  cell.memory_bytes = stats.memory_bytes;
  cell.new_embeddings = stats.new_embeddings;
  cell.final_join_passes = engine->final_join_passes();
  cell.shared_finalize_groups = engine->shared_finalize_groups();
  cell.routed_candidates = engine->routed_candidates();
  cell.prefilter_rejects = engine->prefilter_rejects();
  cell.batch_tasks = engine->batch_tasks();
  cell.batch_steals = engine->batch_steals();
  cell.footprint_cache_hits = engine->footprint_cache_hits();
  cell.queries_satisfied = stats.queries_satisfied;
  return cell;
}

ChurnCellResult RunChurnCell(EngineKind kind,
                             const std::vector<QueryPattern>& base,
                             const std::vector<QueryPattern>& pool,
                             const UpdateStream& stream, size_t churn_every,
                             double budget_seconds, size_t batch, int threads,
                             bool shared_finalize, bool route_index) {
  ChurnCellResult cell;
  auto engine = CreateEngine(kind);
  engine->SetSharedFinalize(shared_finalize);
  engine->SetRouteIndex(route_index);
  cell.initial_index = IndexQueries(*engine, base);
  cell.memory_after_index = engine->MemoryBytes();

  // The mixed event sequence: every `churn_every` updates, retire the
  // oldest live query and register the next one from the pool (steady-state
  // |QDB|, FIFO lifetimes — the paper's expiring continuous queries).
  std::vector<StreamEvent> events;
  events.reserve(stream.size() + 2 * pool.size());
  std::vector<QueryId> live;
  for (QueryId q = 0; q < base.size(); ++q) live.push_back(q);
  QueryId next_qid = static_cast<QueryId>(base.size());
  size_t next_pool = 0;
  size_t oldest = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (churn_every > 0 && i > 0 && i % churn_every == 0 &&
        next_pool < pool.size() && oldest < live.size()) {
      events.push_back(StreamEvent::Remove(live[oldest++]));
      events.push_back(StreamEvent::Add(next_qid, pool[next_pool++]));
      live.push_back(next_qid++);
    }
    events.push_back(StreamEvent::Update(stream[i]));
  }

  RunConfig config;
  config.budget_seconds = budget_seconds;
  config.batch_window = batch;
  config.batch_threads = threads;
  cell.stats = RunMixedStream(*engine, events, config);
  cell.live_queries_end = engine->NumQueries();
  cell.final_join_passes = engine->final_join_passes();
  cell.shared_finalize_groups = engine->shared_finalize_groups();
  return cell;
}

std::string FormatMs(double ms, bool partial) {
  if (std::isnan(ms)) return "*";
  std::string s = TextTable::Num(ms, 3);
  if (partial) s += "*";
  return s;
}

BenchLine::BenchLine(const std::string& bench) {
  body_ = "{\"bench\":\"" + bench + "\"";
}

BenchLine& BenchLine::Add(const std::string& key, const std::string& value) {
  body_ += ",\"" + key + "\":\"" + value + "\"";
  return *this;
}

BenchLine& BenchLine::Add(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  body_ += ",\"" + key + "\":" + buf;
  return *this;
}

BenchLine& BenchLine::Add(const std::string& key, uint64_t value) {
  body_ += ",\"" + key + "\":" + std::to_string(value);
  return *this;
}

void BenchLine::Emit() {
  std::printf("BENCH_JSON %s}\n", body_.c_str());
  std::fflush(stdout);
  body_.clear();
}

std::vector<size_t> EvenCheckpoints(size_t total, size_t n) {
  std::vector<size_t> cp;
  cp.reserve(n);
  for (size_t i = 1; i <= n; ++i) cp.push_back(total * i / n);
  return cp;
}

void PrintHeader(const std::string& figure, const std::string& caption,
                 const BenchOptions& opts) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), caption.c_str());
  std::printf("mode=%s  budget=%.1fs/engine-series  seed=%llu\n",
              opts.full ? "FULL (paper scale)" : "QUICK (laptop scale)",
              opts.budget_seconds, static_cast<unsigned long long>(opts.seed));
  if (opts.batch > 1)
    std::printf("batched execution: ApplyBatch window=%zu threads=%d\n",
                opts.batch, opts.threads);
  if (!opts.shared_finalize)
    std::printf("shared window finalization DISABLED (per-query passes)\n");
  if (!opts.route_index)
    std::printf("query routing index DISABLED (legacy linear dispatch)\n");
  if (opts.tenants > 1)
    std::printf("tenant duplication: %zux (|QDB| scales accordingly)\n",
                opts.tenants);
  std::printf("cells marked '*' exceeded the time budget (paper's timeout marker);\n");
  std::printf("a value with '*' is the average over the prefix processed.\n");
  std::printf("==============================================================\n");
}

void PrintTable(const TextTable& table, const BenchOptions& opts) {
  std::printf("%s\n", table.ToString().c_str());
  if (opts.csv) std::printf("CSV:\n%s\n", table.ToCsv().c_str());
  std::fflush(stdout);
}

workload::Workload MakeWorkload(const std::string& dataset, size_t num_updates,
                                uint64_t seed) {
  if (dataset == "snb") {
    workload::SnbConfig c;
    c.num_updates = num_updates;
    c.seed = seed;
    return workload::GenerateSnb(c);
  }
  if (dataset == "taxi") {
    workload::TaxiConfig c;
    c.num_updates = num_updates;
    c.seed = seed;
    return workload::GenerateTaxi(c);
  }
  workload::BioConfig c;
  c.num_updates = num_updates;
  c.seed = seed;
  return workload::GenerateBio(c);
}

workload::QueryGenConfig BaselineQueryConfig(const BenchOptions& opts,
                                             size_t num_queries) {
  workload::QueryGenConfig qc;
  qc.num_queries = num_queries;
  qc.avg_size = 5.0;        // paper baseline l = 5
  qc.selectivity = 0.25;    // σ = 25%
  qc.overlap = 0.35;        // o = 35%
  qc.seed = opts.seed * 1315423911ull + 17;
  qc.tenants = opts.tenants;
  return qc;
}

void RunGrowthFigure(const std::string& figure, const std::string& caption,
                     const std::string& dataset, size_t total_updates,
                     size_t num_segments, size_t num_queries,
                     const std::vector<EngineKind>& kinds, const BenchOptions& opts) {
  PrintHeader(figure, caption, opts);
  std::printf("dataset=%s  |GE|=%zu  |QDB|=%zu  l=5  sigma=25%%  o=35%%\n\n",
              dataset.c_str(), total_updates, num_queries);

  workload::Workload w = MakeWorkload(dataset, total_updates, opts.seed);
  workload::QuerySet qs =
      workload::GenerateQueries(w, BaselineQueryConfig(opts, num_queries));
  const std::vector<size_t> checkpoints = EvenCheckpoints(total_updates, num_segments);

  std::vector<GrowthSeries> all;
  for (EngineKind kind : kinds) {
    std::printf("  running %-8s ...", EngineKindName(kind));
    std::fflush(stdout);
    GrowthSeries s =
        RunGrowthSeries(kind, qs.queries, w.stream, checkpoints,
                        opts.budget_seconds, opts.batch, opts.threads,
                        opts.shared_finalize, opts.route_index);
    std::printf(" %zu/%zu updates, %.0f updates/s, %.1f MB, %llu new embeddings\n",
                s.updates_applied, total_updates, s.UpdatesPerSec(),
                static_cast<double>(s.memory_bytes) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(s.new_embeddings));
    BenchLine(figure)
        .Add("dataset", dataset)
        .Add("engine", EngineKindName(kind))
        .Add("updates_per_sec", s.UpdatesPerSec())
        .Add("updates_applied", static_cast<uint64_t>(s.updates_applied))
        .Add("partial", static_cast<uint64_t>(s.updates_applied < total_updates ? 1 : 0))
        .Add("memory_bytes", static_cast<uint64_t>(s.memory_bytes))
        .Add("final_join_passes", s.final_join_passes)
        .Add("shared_finalize_groups", s.shared_finalize_groups)
        .Add("routed_candidates", s.routed_candidates)
        .Add("candidates_per_update", s.CandidatesPerUpdate())
        .Add("prefilter_rejects", s.prefilter_rejects)
        .Emit();
    all.push_back(std::move(s));
  }
  std::printf("\n");

  std::vector<std::string> header{"edges", "vertices"};
  for (EngineKind kind : kinds) header.emplace_back(EngineKindName(kind));
  TextTable table(std::move(header));
  for (size_t seg = 0; seg < checkpoints.size(); ++seg) {
    std::vector<std::string> row;
    row.push_back(std::to_string(checkpoints[seg]));
    row.push_back(std::to_string(w.stream.CountVertices(checkpoints[seg])));
    for (const auto& s : all)
      row.push_back(FormatMs(s.segment_ms[seg], s.partial[seg]));
    table.AddRow(std::move(row));
  }
  PrintTable(table, opts);
}

}  // namespace bench
}  // namespace gstream
