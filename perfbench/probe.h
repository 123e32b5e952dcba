// Measurement plumbing of the repo benchmark: the report every workload fills,
// latency samples, the in-memory span tracer, and a forwarding engine
// decorator that times each call into the engine layer from outside.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line settings shared by every workload.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< Span dump path (trace runs only).
};

/// What one invocation measured and checked. Metrics keep insertion order so
/// the human-readable listing follows the workload's phases.
struct Report {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit);
  /// Records one output check; a failed check marks the run incorrect.
  void Check(bool ok, const std::string& what);
};

/// Latency or duration samples with the percentile rule the benchmark uses
/// everywhere (nearest rank on the sorted samples).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void AddN(double v, size_t n) { values_.insert(values_.end(), n, v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  double Percentile(double p) const;

 private:
  std::vector<double> values_;
};

/// Median of a small list of per-pass figures.
double Median(std::vector<double> v);

/// The p50 and p95 of each pass's samples, reported as their medians over
/// the passes, so one pass the host slowed does not set a run's figure.
class PassPercentiles {
 public:
  void Add(const Samples& pass) {
    p50_.push_back(pass.Percentile(50));
    p95_.push_back(pass.Percentile(95));
  }
  double p50() const { return Median(p50_); }
  double p95() const { return Median(p95_); }

 private:
  std::vector<double> p50_, p95_;
};

/// Peak resident set of this process, in bytes.
double PeakRssBytes();

/// The CPUs this process may run on.
std::vector<int> AllowedCpus();

/// Restricts the calling thread, and every thread it starts while the pin
/// lives (they inherit its CPU mask), to `cpus`; restores the thread's
/// previous mask when it goes out of scope. An empty list pins nothing.
class CpuPin {
 public:
  explicit CpuPin(const std::vector<int>& cpus);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  std::vector<int> saved_;
};

/// The CPU of `cpus` on which `probe` (which returns the seconds it timed)
/// ran fastest, best of two runs on each, as a pin list for CpuPin; empty
/// when `cpus` is.
std::vector<int> QuietestCpu(const std::vector<int>& cpus, const std::function<double()>& probe);

/// Order-sensitive digest of per-update results: (update index, query id,
/// new-embedding count) for every non-zero count.
class ResultDigest {
 public:
  void Add(uint64_t index, const gstream::UpdateResult& r);
  uint64_t value() const { return h_; }
  uint64_t pairs() const { return pairs_; }

 private:
  void Mix(uint64_t v);
  uint64_t h_ = 0x9e3779b97f4a7c15ull;
  uint64_t pairs_ = 0;
};

/// In-memory span recorder for the traced run. Spans carry a name, start,
/// end and parent (the innermost open span on the recording thread); they
/// are written out once, when the workload ends. When no tracer is active a
/// Scope is a single null check.
class Tracer {
 public:
  struct Span {
    uint32_t name = 0;
    int32_t parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// The process-wide tracer of a traced run; null otherwise.
  static Tracer* active() { return active_; }
  static void Activate(Tracer* t) { active_ = t; }

  class Scope {
   public:
    explicit Scope(const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  /// Total and self time (span time minus time covered by child spans) per
  /// span name, in seconds.
  double TotalSeconds(const std::string& name) const;
  double SelfSeconds(const std::string& name) const;
  size_t size() const;

  /// Writes every span as CSV (index,parent,name,start_ns,end_ns).
  bool WriteCsv(const std::string& path) const;

 private:
  int32_t Begin(const char* name);
  void End(int32_t index);
  uint32_t NameId(const char* name);

  static Tracer* active_;
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Forwarding decorator around the engine under test. It times every call
/// into the engine layer (the per-update result latency and the per-layer
/// busy times are read from here), opens an `engine.*` span around each call
/// in a traced run, and can hand every per-update result to an observer.
class ProbeEngine final : public gstream::ContinuousEngine {
 public:
  using Observer = std::function<void(const gstream::UpdateResult&)>;

  explicit ProbeEngine(std::unique_ptr<gstream::ContinuousEngine> inner)
      : inner_(std::move(inner)) {}

  void set_observer(Observer fn) { observer_ = std::move(fn); }

  /// Call-duration samples in microseconds: one per update (the duration of
  /// the call that returned its result), and one per update that triggered
  /// at least one query.
  const Samples& result_latency_us() const { return result_latency_us_; }
  const Samples& notify_latency_us() const { return notify_latency_us_; }
  const Samples& add_query_ms() const { return add_query_ms_; }
  const Samples& remove_query_ms() const { return remove_query_ms_; }
  uint64_t apply_calls() const { return apply_calls_; }
  uint64_t updates_applied() const { return updates_applied_; }
  double apply_busy_s() const { return apply_busy_ns_ / 1e9; }
  double delete_call_busy_s() const { return delete_call_busy_ns_ / 1e9; }

  // ContinuousEngine.
  std::string name() const override { return inner_->name(); }
  bool HasQuery(gstream::QueryId qid) const override { return inner_->HasQuery(qid); }
  gstream::UpdateResult ApplyUpdate(const gstream::EdgeUpdate& u) override;
  std::vector<gstream::UpdateResult> ApplyBatch(const gstream::EdgeUpdate* updates,
                                                size_t n) override;
  void SetBatchThreads(int threads) override { inner_->SetBatchThreads(threads); }
  size_t NumQueries() const override { return inner_->NumQueries(); }
  uint64_t final_join_passes() const override { return inner_->final_join_passes(); }
  uint64_t shared_finalize_groups() const override {
    return inner_->shared_finalize_groups();
  }
  void SetSharedFinalize(bool enabled) override { inner_->SetSharedFinalize(enabled); }
  uint64_t routed_candidates() const override { return inner_->routed_candidates(); }
  uint64_t prefilter_rejects() const override { return inner_->prefilter_rejects(); }
  uint64_t batch_tasks() const override { return inner_->batch_tasks(); }
  uint64_t batch_steals() const override { return inner_->batch_steals(); }
  uint64_t footprint_cache_hits() const override {
    return inner_->footprint_cache_hits();
  }
  void SetRouteIndex(bool enabled) override { inner_->SetRouteIndex(enabled); }
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }
  uint64_t StateFingerprint() const override { return inner_->StateFingerprint(); }

 protected:
  void AddQueryImpl(gstream::QueryId qid, const gstream::QueryPattern& q) override;
  void RemoveQueryImpl(gstream::QueryId qid) override;

 private:
  void Absorb(const gstream::UpdateResult* results, size_t n, int64_t ns,
              bool has_delete);

  std::unique_ptr<gstream::ContinuousEngine> inner_;
  Observer observer_;
  Samples result_latency_us_;
  Samples notify_latency_us_;
  Samples add_query_ms_;
  Samples remove_query_ms_;
  uint64_t apply_calls_ = 0;
  uint64_t updates_applied_ = 0;
  int64_t apply_busy_ns_ = 0;
  int64_t delete_call_busy_ns_ = 0;
};

/// The engine every workload runs: TRIC+, the server's default and the
/// engine the paper's claim is about, behind the probe.
std::unique_ptr<ProbeEngine> MakeTricPlus();

/// Per-layer figures read from the engine's public counters after a pass;
/// zero where the engine did no such work.
void ReportEngineCounters(const ProbeEngine& engine, Report& report);

/// The task-scheduler share of ReportEngineCounters.
void ReportSchedulerCounters(const ProbeEngine& engine, Report& report);

/// Reports the latency and registration metrics of an in-process workload.
void ReportLatencies(const PassPercentiles& result_us, const PassPercentiles& notify_us,
                     const PassPercentiles& add_ms, const PassPercentiles& remove_ms,
                     Report& report);

/// Per-layer figures of a traced run that come from its spans.
void ReportTraceTotals(const Tracer& tracer, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
