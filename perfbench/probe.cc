#include "probe.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "graph/update.h"

namespace perfbench {

using gstream::EdgeUpdate;
using gstream::UpdateOp;
using gstream::UpdateResult;

void Report::Set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

void Report::Check(bool ok, const std::string& what) {
  std::fprintf(stderr, "check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) correct = false;
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> v = values_;
  // Nearest rank: the smallest sample with at least p% of samples <= it.
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssBytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // Linux reports KiB.
}

namespace {

bool SetThreadCpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

CpuPin::CpuPin(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  std::vector<int> before = AllowedCpus();
  if (SetThreadCpus(cpus)) saved_ = std::move(before);
}

CpuPin::~CpuPin() {
  if (!saved_.empty()) SetThreadCpus(saved_);
}

std::vector<int> QuietestCpu(const std::vector<int>& cpus,
                             const std::function<double()>& probe) {
  std::vector<int> best;
  double best_s = 0;
  for (int c : cpus) {
    const CpuPin pin({c});
    const double s = std::min(probe(), probe());
    if (best.empty() || s < best_s) {
      best = {c};
      best_s = s;
    }
  }
  return best;
}

void ResultDigest::Mix(uint64_t v) {
  // splitmix64 finalizer over the running state.
  uint64_t z = h_ ^ (v + 0x9e3779b97f4a7c15ull + (h_ << 6) + (h_ >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  h_ = z ^ (z >> 31);
}

void ResultDigest::Add(uint64_t index, const UpdateResult& r) {
  for (const auto& [qid, count] : r.per_query) {
    Mix(index);
    Mix(qid);
    Mix(count);
    ++pairs_;
  }
}

// ------------------------------------------------------------------ tracing

Tracer* Tracer::active_ = nullptr;

namespace {
thread_local std::vector<int32_t> open_spans;
}  // namespace

uint32_t Tracer::NameId(const char* name) {
  for (size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<uint32_t>(i);
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

int32_t Tracer::Begin(const char* name) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = NameId(name);
  s.parent = open_spans.empty() ? -1 : open_spans.back();
  s.start_ns = now;
  spans_.push_back(s);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_spans.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end_ns = now;
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
}

Tracer::Scope::Scope(const char* name) : tracer_(Tracer::active()) {
  if (tracer_ != nullptr) index_ = tracer_->Begin(name);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->End(index_);
}

double Tracer::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t ns = 0;
  for (const Span& s : spans_)
    if (names_[s.name] == name) ns += s.end_ns - s.start_ns;
  return ns / 1e9;
}

double Tracer::SelfSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  // Children opened on the parent's thread nest inside it, so subtracting
  // their durations leaves the time no child span covers.
  for (const Span& s : spans_)
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  int64_t ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i)
    if (names_[spans_[i].name] == name) ns += self[i];
  return ns / 1e9;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index,parent,name,start_ns,end_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%d,%s,%lld,%lld\n", i, s.parent, names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------- engine probe

void ProbeEngine::Absorb(const UpdateResult* results, size_t n, int64_t ns,
                         bool has_delete) {
  ++apply_calls_;
  updates_applied_ += n;
  apply_busy_ns_ += ns;
  if (has_delete) delete_call_busy_ns_ += ns;
  const double us = ns / 1e3;
  result_latency_us_.AddN(us, n);
  for (size_t i = 0; i < n; ++i) {
    if (!results[i].triggered.empty()) notify_latency_us_.Add(us);
    if (observer_) observer_(results[i]);
  }
}

UpdateResult ProbeEngine::ApplyUpdate(const EdgeUpdate& u) {
  Tracer::Scope span("engine.apply");
  const int64_t t0 = NowNs();
  UpdateResult r = inner_->ApplyUpdate(u);
  Absorb(&r, 1, NowNs() - t0, u.op == UpdateOp::kDelete);
  return r;
}

std::vector<UpdateResult> ProbeEngine::ApplyBatch(const EdgeUpdate* updates, size_t n) {
  Tracer::Scope span("engine.apply");
  const int64_t t0 = NowNs();
  std::vector<UpdateResult> r = inner_->ApplyBatch(updates, n);
  const int64_t ns = NowNs() - t0;
  const bool has_delete = std::any_of(updates, updates + n, [](const EdgeUpdate& u) {
    return u.op == UpdateOp::kDelete;
  });
  Absorb(r.data(), r.size(), ns, has_delete);
  return r;
}

void ProbeEngine::AddQueryImpl(gstream::QueryId qid, const gstream::QueryPattern& q) {
  Tracer::Scope span("engine.add_query");
  const int64_t t0 = NowNs();
  inner_->AddQuery(qid, q);
  add_query_ms_.Add((NowNs() - t0) / 1e6);
}

void ProbeEngine::RemoveQueryImpl(gstream::QueryId qid) {
  Tracer::Scope span("engine.remove_query");
  const int64_t t0 = NowNs();
  inner_->RemoveQuery(qid);
  remove_query_ms_.Add((NowNs() - t0) / 1e6);
}

std::unique_ptr<ProbeEngine> MakeTricPlus() {
  return std::make_unique<ProbeEngine>(gstream::CreateEngine(gstream::EngineKind::kTricPlus));
}

void ReportEngineCounters(const ProbeEngine& e, Report& report) {
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double calls = static_cast<double>(e.apply_calls());
  const double updates = static_cast<double>(e.updates_applied());
  const double passes = static_cast<double>(e.final_join_passes());
  report.Set("engine.apply_busy_s", e.apply_busy_s(), "s");
  report.Set("engine.apply_calls", calls, "count");
  report.Set("engine.delete_call_share", ratio(e.delete_call_busy_s(), e.apply_busy_s()),
             "ratio");
  report.Set("engine.join_passes_per_window", ratio(passes, calls), "count");
  report.Set("engine.shared_pass_ratio",
             ratio(static_cast<double>(e.shared_finalize_groups()), passes), "ratio");
  report.Set("query.candidates_per_update",
             ratio(static_cast<double>(e.routed_candidates()), updates), "count");
  report.Set("query.prefilter_reject_ratio",
             ratio(static_cast<double>(e.prefilter_rejects()), updates), "ratio");
  ReportSchedulerCounters(e, report);
}

void ReportSchedulerCounters(const ProbeEngine& e, Report& report) {
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double calls = static_cast<double>(e.apply_calls());
  const double tasks = static_cast<double>(e.batch_tasks());
  report.Set("scheduler.tasks_per_window", ratio(tasks, calls), "count");
  report.Set("scheduler.steal_ratio", ratio(static_cast<double>(e.batch_steals()), tasks),
             "ratio");
  report.Set("scheduler.footprint_hit_ratio",
             ratio(static_cast<double>(e.footprint_cache_hits()), calls), "count");
}

void ReportLatencies(const PassPercentiles& result_us, const PassPercentiles& notify_us,
                     const PassPercentiles& add_ms, const PassPercentiles& remove_ms,
                     Report& report) {
  report.Set("result_latency_p50_us", result_us.p50(), "us");
  report.Set("result_latency_p95_us", result_us.p95(), "us");
  report.Set("notify_latency_p50_ms", notify_us.p50() / 1e3, "ms");
  report.Set("notify_latency_p95_ms", notify_us.p95() / 1e3, "ms");
  report.Set("add_query_ms_p50", add_ms.p50(), "ms");
  report.Set("add_query_ms_p95", add_ms.p95(), "ms");
  report.Set("remove_query_ms_p50", remove_ms.p50(), "ms");
  report.Set("remove_query_ms_p95", remove_ms.p95(), "ms");
}

void ReportTraceTotals(const Tracer& tracer, Report& report) {
  report.Set("engine.add_query_busy_s", tracer.TotalSeconds("engine.add_query"), "s");
  report.Set("engine.remove_query_busy_s", tracer.TotalSeconds("engine.remove_query"),
             "s");
  report.Set("trace.spans", static_cast<double>(tracer.size()), "count");
}

}  // namespace perfbench
