// perfbench: the measuring program behind perfbench/run.py.
//
// Runs one workload of the repository benchmark against the public TARDiS
// API (TardisStore, Transaction, TardisClient) and prints one JSON object
// as its last line of standard output:
//
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": x, "unit": "u"}, ...}}
//
// holding every metric the workload measures; lines before it are a
// human-readable table of the same numbers and any failed check. run.py
// builds this program, starts the tardisd pair for site-pair, and keeps
// the subset BENCHMARK.json names. Workloads, metrics and the layer each
// per-layer metric belongs to are described in perfbench/README.md.
//
// Every layer is timed from outside: a span is opened around each call
// into the program and closed when the call returns. Spans are recorded
// only in traced runs (--trace=1), kept in memory, and written to
// --trace-out when the run ends. In a traced run, tracing is switched on
// for every other pass or time slice, so the same run also measures the
// untraced rate and reports the difference as the tracing overhead.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/workload.h"
#include "client/tardis_client.h"
#include "core/tardis_store.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace tardis {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e9; }

// ---- statistics -----------------------------------------------------------

/// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank > 0) rank--;
  return v[std::min(rank, v.size() - 1)];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Latency samples grouped into windows of a run: a pass, or one second
/// of the measured interval. A reported percentile is the median over the
/// windows of each window's percentile, so a single stall-heavy window
/// moves it by one rank instead of setting it. Windows with too few
/// samples for ten to lie beyond p99 are left out.
class Windows {
 public:
  static constexpr size_t kMinSamples = 1000;
  static constexpr int64_t kSpanNs = 1'000'000'000;

  void Add(size_t window, double us) {
    if (window >= windows_.size()) windows_.resize(window + 1);
    windows_[window].push_back(us);
  }
  void Append(const Windows& other) {
    if (other.windows_.size() > windows_.size()) {
      windows_.resize(other.windows_.size());
    }
    for (size_t i = 0; i < other.windows_.size(); i++) {
      windows_[i].insert(windows_[i].end(), other.windows_[i].begin(),
                         other.windows_[i].end());
    }
  }
  double MedianQuantile(double q) const {
    std::vector<double> per_window;
    for (const std::vector<double>& w : windows_) {
      if (w.size() >= kMinSamples) per_window.push_back(Quantile(w, q));
    }
    return Median(per_window);
  }
  size_t samples() const {
    size_t n = 0;
    for (const std::vector<double>& w : windows_) n += w.size();
    return n;
  }
  size_t windows() const {
    size_t n = 0;
    for (const std::vector<double>& w : windows_) n += w.size() >= kMinSamples;
    return n;
  }

 private:
  std::vector<std::vector<double>> windows_;
};

// ---- report ---------------------------------------------------------------

/// The run's outcome: metrics in insertion order plus the correctness and
/// failure accounting every workload shares.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    correct_ = false;
    fprintf(stdout, "CHECK FAILED: %s\n", why.c_str());
  }
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Prints the JSON result. Metrics of `all` the workload did not report
  /// (a layer it bypasses) read 0, so every workload reports every name.
  void Print(const std::vector<std::pair<const char*, const char*>>& all) {
    if (attempted_ == 0) {
      Fail("no operation was attempted");
      Count(1, 1);
    }
    for (const auto& [name, unit] : all) {
      bool found = false;
      for (const Metric& m : metrics_) found |= m.name == name;
      if (!found) metrics_.push_back({name, 0, unit});
    }
    metrics_.push_back({"failed_frac",
                        attempted_ == 0 ? 0.0
                                        : static_cast<double>(failed_) /
                                              static_cast<double>(attempted_),
                        "fraction"});
    std::string json = std::string("{\"correct\": ") +
                       (correct_ ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); i++) {
      char value[64];
      snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) json += ", ";
      json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    fprintf(stdout, "%s\n", json.c_str());
    fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Every metric besides the span statistics, with its unit.
const std::vector<std::pair<const char*, const char*>> kMetrics = {
    // end to end
    {"setup_s", "s"}, {"txn_per_s", "1/s"}, {"txn_p50_us", "us"},
    {"txn_p99_us", "us"}, {"merge_p50_us", "us"}, {"merge_p99_us", "us"},
    {"recovery_s", "s"}, {"ops_per_s", "1/s"}, {"put_p50_us", "us"},
    {"put_p99_us", "us"}, {"get_p50_us", "us"}, {"get_p99_us", "us"},
    {"repl_visible_p50_us", "us"}, {"repl_visible_p99_us", "us"},
    // per layer
    {"core.forks_per_1k_commits", "per_1k"},
    {"merge.conflict_keys", "keys/merge"}, {"merge.parents", "parents/merge"},
    {"gc.states_deleted", "count"}, {"gc.versions_pruned", "count"},
    {"gc.versions_promoted", "count"}, {"dag.states_live", "count"},
    {"dag.leaves", "count"}, {"stage.commit_select_us", "us"},
    {"stage.wal_fsync_us", "us"},
    {"storage.write_bytes_per_user_byte", "B/B"},
    {"storage.space_bytes_per_live_byte", "B/B"},
    {"storage.log_bytes_per_commit", "B/commit"},
    {"server.queue_wait_us", "us"}, {"server.shed", "count"},
    {"server.expired", "count"}, {"repl.send_us", "us"},
    {"repl.applied_per_put", "1/put"}, {"net.bytes_per_put", "B/put"},
    {"client.retries", "count"}, {"client.failovers", "count"},
    {"session.dedup_hits", "count"}, {"gen.lateness_p99_us", "us"},
    {"trace.overhead_pct", "%"},
};

// ---- spans ----------------------------------------------------------------

/// Every span name a workload may record. Each is reported as
/// <name>.calls / .p50_us / .p99_us / .self_ms on every workload, so a
/// layer a workload bypasses reads 0 calls there.
const char* const kSpanNames[] = {
    "workload.op",                                          // generator unit
    "core.begin",      "core.get",        "core.put",       "core.commit",
    "merge.txn",       "merge.begin",     "merge.fork_points",
    "merge.conflict_writes", "merge.get_for_id", "merge.commit",
    "gc.ceiling",      "gc.run",          "recovery.open",
    "client.put",      "client.get",      "repl.visible",
};

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  ///< index in the same log; -1 for a root span
  uint64_t request;
};

/// One thread's spans, nested by call order. Not thread-safe: one log per
/// generator thread.
class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span starting now, or at `start_ns` when that is given (an
  /// open-loop request starts at its due time).
  int32_t Open(const char* name, uint64_t request, int64_t start_ns = 0) {
    if (!enabled_) return -1;
    const int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(
        {name, start_ns != 0 ? start_ns : NowNs(), 0, parent, request});
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void Close(int32_t index) {
    if (index < 0) return;
    spans_[index].end_ns = NowNs();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// Traced runs of the time-bounded workloads trace every other slice of
/// this length.
constexpr int64_t kTraceSliceNs = 250'000'000;

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request)
      : log_(log), index_(log->Open(name, request)) {}
  ~ScopedSpan() { log_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* const log_;
  const int32_t index_;
};

/// Spans written out per thread; the statistics use every span. A traced
/// 30 s run records a few million spans, too many to keep on disk.
constexpr size_t kMaxWrittenSpans = 100'000;

/// Reports calls, p50, p99 and self time (duration minus the time its
/// child spans cover) per span name, and writes each thread's first
/// kMaxWrittenSpans spans as JSON lines to `out_path` (empty: not written).
void ReportSpans(const std::vector<const SpanLog*>& logs,
                 const std::string& out_path, Report* report) {
  std::map<std::string, std::vector<double>> durations_us;
  std::map<std::string, double> self_ms;
  FILE* out = out_path.empty() ? nullptr : fopen(out_path.c_str(), "w");
  for (size_t t = 0; t < logs.size(); t++) {
    const std::vector<Span>& spans = logs[t]->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); i++) {
      const Span& s = spans[i];
      const int64_t dur = s.end_ns - s.start_ns;
      durations_us[s.name].push_back(dur / 1e3);
      self_ms[s.name] += (dur - child_ns[i]) / 1e6;
      if (out != nullptr && i < kMaxWrittenSpans) {
        fprintf(out,
                "{\"name\":\"%s\",\"thread\":%zu,\"id\":%zu,\"parent\":%d,"
                "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                s.name, t, i, s.parent,
                static_cast<unsigned long long>(s.request),
                static_cast<long long>(s.start_ns),
                static_cast<long long>(s.end_ns));
      }
    }
  }
  if (out != nullptr) fclose(out);
  for (const char* name : kSpanNames) {
    const std::vector<double>& d = durations_us[name];
    const std::string n = name;
    report->Add(n + ".calls", static_cast<double>(d.size()), "count");
    report->Add(n + ".p50_us", Quantile(d, 0.50), "us");
    report->Add(n + ".p99_us", Quantile(d, 0.99), "us");
    report->Add(n + ".self_ms", self_ms[name], "ms");
  }
}

// ---- registry access ------------------------------------------------------

/// Sum over every series named `name` (counters and gauges).
double SampleValue(const std::vector<obs::Sample>& samples,
                   const std::string& name) {
  double sum = 0;
  for (const obs::Sample& s : samples) {
    if (s.name != name) continue;
    sum += s.kind == obs::MetricKind::kCounter ? static_cast<double>(s.counter)
                                               : s.gauge;
  }
  return sum;
}

/// (count, sum) of the tardis_stage_micros histogram of one stage.
std::pair<double, double> StageTotals(const std::vector<obs::Sample>& samples,
                                      const std::string& stage) {
  for (const obs::Sample& s : samples) {
    if (s.name != "tardis_stage_micros") continue;
    for (const auto& [k, v] : s.labels) {
      if (k == "stage" && v == stage) {
        const double n = static_cast<double>(s.hist.count());
        return {n, s.hist.mean() * n};
      }
    }
  }
  return {0, 0};
}

/// Mean microseconds per stage observation between two collections.
double StageMeanUs(const std::vector<obs::Sample>& before,
                   const std::vector<obs::Sample>& after,
                   const std::string& stage) {
  const auto [n0, s0] = StageTotals(before, stage);
  const auto [n1, s1] = StageTotals(after, stage);
  return n1 > n0 ? (s1 - s0) / (n1 - n0) : 0;
}

double Delta(const std::vector<obs::Sample>& before,
             const std::vector<obs::Sample>& after, const std::string& name) {
  return SampleValue(after, name) - SampleValue(before, name);
}

/// The counts every in-process workload reports from the store's own
/// registry, over the window between `before` and `after`.
void ReportStoreCounters(TardisStore* store,
                         const std::vector<obs::Sample>& before,
                         const std::vector<obs::Sample>& after,
                         Report* report) {
  const double commits = Delta(before, after, "tardis_txn_commits_total");
  const double forks = Delta(before, after, "tardis_txn_forks_total");
  report->Add("core.forks_per_1k_commits",
              commits > 0 ? 1000.0 * forks / commits : 0, "per_1k");
  report->Add("gc.states_deleted",
              Delta(before, after, "tardis_gc_states_deleted_total"), "count");
  report->Add("gc.versions_pruned",
              Delta(before, after, "tardis_gc_versions_pruned_total"),
              "count");
  report->Add("gc.versions_promoted",
              Delta(before, after, "tardis_gc_versions_promoted_total"),
              "count");
  report->Add("dag.states_live",
              static_cast<double>(store->dag()->state_count()), "count");
  report->Add("dag.leaves",
              static_cast<double>(store->dag()->Leaves().size()), "count");
  report->Add("stage.commit_select_us",
              StageMeanUs(before, after, "commit_select"), "us");
  report->Add("stage.wal_fsync_us", StageMeanUs(before, after, "wal_fsync"),
              "us");
}

// ---- branch-merge ---------------------------------------------------------
//
// One generator thread interleaves kSessions logical sessions on a mem
// store. A pass is a fixed amount of work on a fresh store; every pass of
// a run replays the same seeded inputs, so fork shapes, merge sizes and GC
// counts repeat exactly, and a run reports the median pass.

constexpr int kSessions = 4;
constexpr uint64_t kBmKeys = 10'000;
constexpr uint64_t kBmRoundsPerPass = 4'000;
constexpr uint64_t kBmMergeEvery = 50;  // R: rounds between merges
constexpr uint64_t kBmGcEvery = 200;    // G: rounds between inline GC runs

bench::WorkloadOptions BranchMergeWorkload() {
  bench::WorkloadOptions w;
  w.num_keys = kBmKeys;
  w.dist = bench::Distribution::kZipfian;
  w.zipf_theta = 0.99;
  w.mix = bench::Mix::kWriteHeavy;
  w.reads_per_txn = 3;
  w.writes_per_txn = 3;
  return w;
}

struct MergeCounts {
  uint64_t merges = 0;
  uint64_t conflict_keys = 0;
  uint64_t parents = 0;
};

/// Reconciles every branch tip into one merge state the way
/// `tardisd merge lww` does: fork points, conflicting keys, then the
/// largest value across the tips wins. Returns false on a failed call.
bool MergeLww(TardisStore* store, ClientSession* session, SpanLog* spans,
              uint64_t request, MergeCounts* counts, std::string* error) {
  ScopedSpan root(spans, "merge.txn", request);
  StatusOr<TxnPtr> m = [&] {
    ScopedSpan s(spans, "merge.begin", request);
    return store->BeginMerge(session);
  }();
  if (!m.ok()) {
    *error = "BeginMerge: " + m.status().ToString();
    return false;
  }
  Transaction* txn = m->get();
  const std::vector<StateId> parents = txn->parents();
  if (parents.size() < 2) {
    txn->Abort();
    return true;
  }
  StatusOr<std::vector<StateId>> forks = [&] {
    ScopedSpan s(spans, "merge.fork_points", request);
    return txn->FindForkPoints(parents);
  }();
  StatusOr<std::vector<std::string>> conflicts = [&] {
    ScopedSpan s(spans, "merge.conflict_writes", request);
    return txn->FindConflictWrites(parents);
  }();
  if (!forks.ok() || !conflicts.ok()) {
    *error = "merge helpers: " + (forks.ok() ? conflicts.status().ToString()
                                             : forks.status().ToString());
    txn->Abort();
    return false;
  }
  for (const std::string& key : *conflicts) {
    std::string best;
    for (StateId p : parents) {
      std::string v;
      Status s;
      {
        ScopedSpan span(spans, "merge.get_for_id", request);
        s = txn->GetForId(key, p, &v);
      }
      if (s.ok() && v > best) best = v;
      if (!s.ok() && !s.IsNotFound()) {
        *error = "GetForId: " + s.ToString();
        txn->Abort();
        return false;
      }
    }
    Status s = txn->Put(key, best);
    if (!s.ok()) {
      *error = "merge Put: " + s.ToString();
      txn->Abort();
      return false;
    }
  }
  Status s;
  {
    ScopedSpan span(spans, "merge.commit", request);
    s = txn->Commit();
  }
  if (!s.ok()) {
    *error = "merge Commit: " + s.ToString();
    return false;
  }
  counts->merges++;
  counts->conflict_keys += conflicts->size();
  counts->parents += parents.size();
  return true;
}

struct BmPass {
  double setup_s = 0;
  double run_s = 0;
  uint64_t txns = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MergeCounts merge;
  uint64_t forks = 0;
  uint64_t commits = 0;
  uint64_t states_deleted = 0;
  size_t final_leaves = 0;
  std::vector<double> txn_us;
  std::vector<double> merge_us;
  std::string error;

  /// Everything the seed fixes; equal on every pass of one seed.
  std::string Signature() const {
    std::ostringstream os;
    os << "commits=" << commits << " forks=" << forks
       << " merges=" << merge.merges << " conflict_keys=" << merge.conflict_keys
       << " parents=" << merge.parents << " gc_deleted=" << states_deleted;
    return os.str();
  }
};

/// The store of the latest pass and its registry around the timed rounds.
struct BmLast {
  std::unique_ptr<TardisStore> store;
  std::vector<obs::Sample> before;
  std::vector<obs::Sample> after;
};

BmPass RunBranchMergePass(uint64_t seed, SpanLog* spans, BmLast* last) {
  BmPass pass;
  const int64_t setup_start = NowNs();
  TardisOptions options;
  options.backend = RecordBackend::kMem;
  auto opened = TardisStore::Open(options);
  if (!opened.ok()) {
    pass.error = "Open: " + opened.status().ToString();
    return pass;
  }
  std::unique_ptr<TardisStore> store = std::move(*opened);
  const bench::WorkloadOptions workload = BranchMergeWorkload();
  {
    auto loader = store->CreateSession();
    bench::TxnGenerator gen(workload, seed);
    for (uint64_t k = 0; k < kBmKeys && pass.error.empty(); k += 128) {
      auto txn = store->Begin(loader.get());
      if (!txn.ok()) {
        pass.error = "preload Begin: " + txn.status().ToString();
        break;
      }
      Status s;
      for (uint64_t i = k; s.ok() && i < std::min(k + 128, kBmKeys); i++) {
        s = (*txn)->Put(bench::TxnGenerator::KeyName(i), gen.RandomValue());
      }
      if (s.ok()) s = (*txn)->Commit();
      if (!s.ok()) pass.error = "preload: " + s.ToString();
    }
  }
  std::vector<std::unique_ptr<ClientSession>> sessions;
  std::vector<bench::TxnGenerator> gens;
  for (int i = 0; i < kSessions; i++) {
    sessions.push_back(store->CreateSession());
    gens.emplace_back(workload, seed * 7919 + static_cast<uint64_t>(i) + 1);
  }
  auto merger = store->CreateSession();
  const BeginConstraintPtr ancestor = AncestorBegin();
  const EndConstraintPtr serializable = SerializabilityEnd();
  const std::vector<obs::Sample> before = store->metrics()->Collect();
  pass.setup_s = SecondsSince(setup_start);
  if (!pass.error.empty()) return pass;

  auto merge = [&](uint64_t request) {
    const int64_t t0 = NowNs();
    const uint64_t merges_before = pass.merge.merges;
    pass.attempted++;
    if (!MergeLww(store.get(), merger.get(), spans, request, &pass.merge,
                  &pass.error)) {
      pass.failed++;
      return;
    }
    if (pass.merge.merges > merges_before) {
      pass.merge_us.push_back((NowNs() - t0) / 1e3);
    }
  };

  const int64_t run_start = NowNs();
  pass.txn_us.reserve(kBmRoundsPerPass * kSessions);
  std::vector<TxnPtr> txns(kSessions);
  std::vector<int64_t> begun(kSessions);
  for (uint64_t round = 1; round <= kBmRoundsPerPass; round++) {
    ScopedSpan op(spans, "workload.op", round);
    for (int i = 0; i < kSessions; i++) {
      begun[i] = NowNs();
      pass.attempted++;
      StatusOr<TxnPtr> t = [&] {
        ScopedSpan s(spans, "core.begin", round);
        return store->Begin(sessions[i].get(), ancestor);
      }();
      if (t.ok()) {
        txns[i] = std::move(*t);
      } else {
        txns[i].reset();
        pass.failed++;
        pass.error = "Begin: " + t.status().ToString();
      }
    }
    for (int i = 0; i < kSessions; i++) {
      bool read_only = false;
      const std::vector<bench::Op> ops = gens[i].NextTxn(&read_only);
      for (const bench::Op& o : ops) {
        if (txns[i] == nullptr) break;
        Status s;
        if (o.is_write) {
          const std::string value = gens[i].RandomValue();
          ScopedSpan span(spans, "core.put", round);
          s = txns[i]->Put(o.key, value);
        } else {
          std::string value;
          ScopedSpan span(spans, "core.get", round);
          s = txns[i]->Get(o.key, &value);
        }
        if (!s.ok()) {
          pass.error = std::string(o.is_write ? "Put " : "Get ") + o.key +
                       ": " + s.ToString();
          txns[i]->Abort();
          txns[i].reset();
          pass.failed++;
        }
      }
    }
    for (int i = 0; i < kSessions; i++) {
      if (txns[i] == nullptr) continue;
      Status s;
      {
        ScopedSpan span(spans, "core.commit", round);
        s = txns[i]->Commit(serializable);
      }
      txns[i].reset();
      if (s.ok()) {
        pass.txns++;
        pass.txn_us.push_back((NowNs() - begun[i]) / 1e3);
      } else {
        pass.failed++;
        pass.error = "Commit: " + s.ToString();
      }
    }
    if (round % kBmMergeEvery == 0) merge(round);
    if (round % kBmGcEvery == 0) {
      for (auto& session : sessions) {
        ScopedSpan span(spans, "gc.ceiling", round);
        store->PlaceCeiling(session.get());
      }
      ScopedSpan span(spans, "gc.run", round);
      store->RunGarbageCollection();
    }
  }
  // The final merge reconciles whatever forked since the last one.
  merge(kBmRoundsPerPass + 1);
  pass.run_s = SecondsSince(run_start);
  pass.final_leaves = store->dag()->Leaves().size();
  const std::vector<obs::Sample> after = store->metrics()->Collect();
  pass.forks =
      static_cast<uint64_t>(Delta(before, after, "tardis_txn_forks_total"));
  pass.commits =
      static_cast<uint64_t>(Delta(before, after, "tardis_txn_commits_total"));
  pass.states_deleted = static_cast<uint64_t>(
      Delta(before, after, "tardis_gc_states_deleted_total"));
  last->store = std::move(store);
  last->before = before;
  last->after = after;
  return pass;
}

void RunBranchMerge(uint64_t seed, double seconds, bool traced,
                    const std::string& trace_out, Report* report) {
  SpanLog spans;
  std::vector<BmPass> passes;
  BmLast last;
  const int64_t start = NowNs();
  // Pass 0 warms the allocator and caches and is checked but not timed.
  // Then at least three timed passes (two of each kind in a traced run,
  // which traces every other one) so the median is a real median, and as
  // many more as fit in the time given.
  auto is_traced = [traced](size_t pass) {
    return traced && pass > 0 && pass % 2 == 0;
  };
  const size_t min_passes = traced ? 5 : 4;
  while (passes.size() < min_passes || SecondsSince(start) < seconds) {
    spans.set_enabled(is_traced(passes.size()));
    last.store.reset();
    passes.push_back(RunBranchMergePass(seed, &spans, &last));
    spans.set_enabled(false);
    if (!passes.back().error.empty()) break;
  }

  std::vector<double> setup_s, untraced_s, traced_s, rate, merge_us;
  Windows txn_us;
  for (size_t i = 0; i < passes.size(); i++) {
    const BmPass& p = passes[i];
    report->Count(p.attempted, p.failed);
    if (!p.error.empty()) report->Fail("branch-merge: " + p.error);
    if (p.final_leaves != 1) {
      report->Fail("branch-merge: " + std::to_string(p.final_leaves) +
                   " leaves after the final merge, expected 1");
    }
    if (p.failed != 0) {
      report->Fail("branch-merge: " + std::to_string(p.failed) +
                   " failed calls (aborts included), expected 0");
    }
    if (p.Signature() != passes[0].Signature()) {
      report->Fail("branch-merge: pass " + std::to_string(i) +
                   " is not deterministic: " + p.Signature() + " vs " +
                   passes[0].Signature());
    }
    if (i == 0) continue;
    setup_s.push_back(p.setup_s);
    (is_traced(i) ? traced_s : untraced_s).push_back(p.run_s);
    if (is_traced(i)) continue;
    rate.push_back(p.txns / p.run_s);
    for (double us : p.txn_us) txn_us.Add(i, us);
    merge_us.insert(merge_us.end(), p.merge_us.begin(), p.merge_us.end());
  }
  const BmPass& first = passes[0];
  fprintf(stdout,
          "branch-merge: %zu passes x %llu rounds x %d sessions, merge every "
          "%llu rounds, GC every %llu rounds; %s\n",
          passes.size(), static_cast<unsigned long long>(kBmRoundsPerPass),
          kSessions, static_cast<unsigned long long>(kBmMergeEvery),
          static_cast<unsigned long long>(kBmGcEvery),
          first.Signature().c_str());
  fprintf(stdout, "  txn/s per timed pass:");
  for (double r : rate) fprintf(stdout, " %.0f", r);
  fprintf(stdout, "\n");
  fprintf(stdout, "  samples: %zu txns in %zu passes, %zu merges\n",
          txn_us.samples(), txn_us.windows(), merge_us.size());

  report->Add("setup_s", Median(setup_s), "s");
  report->Add("txn_per_s", Median(rate), "1/s");
  report->Add("txn_p50_us", txn_us.MedianQuantile(0.50), "us");
  report->Add("txn_p99_us", txn_us.MedianQuantile(0.99), "us");
  report->Add("merge_p50_us", Quantile(merge_us, 0.50), "us");
  report->Add("merge_p99_us", Quantile(merge_us, 0.99), "us");

  const double merges = static_cast<double>(first.merge.merges);
  report->Add("merge.conflict_keys",
              merges > 0 ? first.merge.conflict_keys / merges : 0,
              "keys/merge");
  report->Add("merge.parents", merges > 0 ? first.merge.parents / merges : 0,
              "parents/merge");
  if (last.store != nullptr) {
    ReportStoreCounters(last.store.get(), last.before, last.after, report);
  }
  report->Add("trace.overhead_pct",
              traced && !traced_s.empty()
                  ? 100.0 * (Median(traced_s) / Median(untraced_s) - 1)
                  : 0,
              "%");
  ReportSpans({&spans}, traced ? trace_out : "", report);
}

// ---- restart-read ---------------------------------------------------------
//
// A btree store larger than its buffer pool is preloaded, flushed and
// closed; the timed reopen recovers it, and kRrThreads client threads
// then run a read-heavy closed loop against the cold store.

constexpr uint64_t kRrKeys = 500'000;
constexpr size_t kRrValueSize = 256;
constexpr int kRrThreads = 4;
constexpr uint64_t kRrPreloadBatch = 1000;
constexpr int kRrSetups = 3;
constexpr uint64_t kRrCeilingEvery = 1000;  // commits per client thread
constexpr uint64_t kRrGcIntervalMs = 100;

/// The preloaded value of key `k`: kRrValueSize bytes fixed by the seed.
std::string PreloadValue(uint64_t seed, uint64_t k) {
  Random rng(seed * 0x9E3779B97F4A7C15ull + k);
  std::string v(kRrValueSize, ' ');
  for (size_t i = 0; i < v.size(); i += 8) {
    uint64_t x = rng.Next();
    for (size_t j = 0; j < 8 && i + j < v.size(); j++) {
      v[i + j] = static_cast<char>('a' + (x >> (8 * j)) % 26);
    }
  }
  return v;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

/// Bytes this process has handed to write(2) and friends so far.
uint64_t ProcessWriteBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

struct RrThread {
  SpanLog spans;
  Windows txn_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rw_commits = 0;
  uint64_t user_bytes = 0;
  uint64_t traced_txns = 0;
  uint64_t untraced_txns = 0;
  std::vector<std::pair<std::string, std::string>> writes;
  std::string error;
};

void RestartReadClient(TardisStore* store, uint64_t seed, int index,
                       bool traced, int64_t start_ns, int64_t end_ns,
                       RrThread* out) {
  bench::WorkloadOptions w;
  w.num_keys = kRrKeys;
  w.dist = bench::Distribution::kUniform;
  w.mix = bench::Mix::kReadHeavy;
  w.value_size = kRrValueSize;
  bench::TxnGenerator gen(w, seed * 104729 + static_cast<uint64_t>(index) + 1);
  auto session = store->CreateSession();
  const EndConstraintPtr serializable = SerializabilityEnd();
  uint64_t request = static_cast<uint64_t>(index) << 48;
  int64_t now = NowNs();
  while (now < end_ns) {
    const bool trace_slice = traced && ((now - start_ns) / kTraceSliceNs) % 2;
    out->spans.set_enabled(trace_slice);
    request++;
    const int64_t txn_start = now;
    bool read_only = false;
    const std::vector<bench::Op> ops = gen.NextTxn(&read_only);
    std::vector<std::pair<std::string, std::string>> writes;
    out->attempted++;
    Status s;
    {
      ScopedSpan op(&out->spans, "workload.op", request);
      StatusOr<TxnPtr> txn = [&] {
        ScopedSpan span(&out->spans, "core.begin", request);
        return store->Begin(session.get());
      }();
      if (!txn.ok()) {
        s = txn.status();
      } else {
        for (const bench::Op& o : ops) {
          if (o.is_write) {
            std::string value = gen.RandomValue();
            ScopedSpan span(&out->spans, "core.put", request);
            s = (*txn)->Put(o.key, value);
            writes.emplace_back(o.key, std::move(value));
          } else {
            std::string value;
            ScopedSpan span(&out->spans, "core.get", request);
            s = (*txn)->Get(o.key, &value);
            if (s.ok() && value.size() != kRrValueSize) {
              s = Status::Corruption("short value for " + o.key);
            }
          }
          if (!s.ok()) break;
        }
        if (s.ok()) {
          ScopedSpan span(&out->spans, "core.commit", request);
          s = (*txn)->Commit(serializable);
        } else {
          (*txn)->Abort();
        }
      }
    }
    now = NowNs();
    if (!s.ok()) {
      out->failed++;
      out->error = s.ToString();
      continue;
    }
    (trace_slice ? out->traced_txns : out->untraced_txns)++;
    if (!trace_slice) {
      out->txn_us.Add((txn_start - start_ns) / Windows::kSpanNs,
                      (now - txn_start) / 1e3);
    }
    if (!read_only) {
      out->rw_commits++;
      for (auto& [k, v] : writes) out->user_bytes += k.size() + v.size();
      out->writes.insert(out->writes.end(),
                         std::make_move_iterator(writes.begin()),
                         std::make_move_iterator(writes.end()));
      if (out->rw_commits % kRrCeilingEvery == 0) {
        ScopedSpan span(&out->spans, "gc.ceiling", request);
        store->PlaceCeiling(session.get());
      }
    }
  }
  out->spans.set_enabled(false);
}

/// Creates `options.dir` afresh and preloads every key in batches of
/// kRrPreloadBatch per transaction, then flushes and closes the store.
/// Adds the user bytes written to *live_bytes.
Status Preload(const TardisOptions& options, uint64_t seed, Report* report,
               uint64_t* live_bytes) {
  std::error_code ec;
  std::filesystem::remove_all(options.dir, ec);
  std::filesystem::create_directories(options.dir, ec);
  auto opened = TardisStore::Open(options);
  if (!opened.ok()) return opened.status();
  std::unique_ptr<TardisStore> store = std::move(*opened);
  auto session = store->CreateSession();
  for (uint64_t k = 0; k < kRrKeys; k += kRrPreloadBatch) {
    auto txn = store->Begin(session.get());
    Status s = txn.status();
    for (uint64_t i = k; s.ok() && i < std::min(k + kRrPreloadBatch, kRrKeys);
         i++) {
      const std::string key = bench::TxnGenerator::KeyName(i);
      const std::string value = PreloadValue(seed, i);
      *live_bytes += key.size() + value.size();
      s = (*txn)->Put(key, value);
    }
    if (s.ok()) s = (*txn)->Commit();
    report->Count(1, s.ok() ? 0 : 1);
    if (!s.ok()) return s;
  }
  return store->Flush();
}

void RunRestartRead(uint64_t seed, double seconds, bool traced,
                    const std::string& workdir, const std::string& trace_out,
                    Report* report) {
  TardisOptions options;
  options.dir = workdir + "/restart-read";
  options.backend = RecordBackend::kBTree;
  options.flush_mode = Wal::FlushMode::kAsync;
  const std::string& dir = options.dir;

  // Set-up runs kRrSetups times, each into a fresh directory, and the
  // median is reported; the last one's store is the one measured.
  std::vector<double> setup_s;
  uint64_t live_bytes = 0;
  for (int i = 0; i < kRrSetups; i++) {
    const int64_t start = NowNs();
    live_bytes = 0;
    Status s = Preload(options, seed, report, &live_bytes);
    if (!s.ok()) {
      report->Fail("restart-read: preload: " + s.ToString());
      return;
    }
    setup_s.push_back(SecondsSince(start));
  }

  SpanLog main_spans;
  main_spans.set_enabled(traced);
  const int64_t open_start = NowNs();
  StatusOr<std::unique_ptr<TardisStore>> reopened = [&] {
    ScopedSpan span(&main_spans, "recovery.open", 0);
    return TardisStore::Open(options);
  }();
  const double recovery_s = SecondsSince(open_start);
  main_spans.set_enabled(false);
  if (!reopened.ok()) {
    report->Fail("restart-read: reopen: " + reopened.status().ToString());
    return;
  }
  std::unique_ptr<TardisStore> store = std::move(*reopened);
  store->StartGcThread(kRrGcIntervalMs);

  const std::string log_path = dir + "/commit.log";
  const std::vector<obs::Sample> before = store->metrics()->Collect();
  const uint64_t log_before = FileBytes(log_path);
  const uint64_t wchar_before = ProcessWriteBytes();
  std::vector<RrThread> threads(kRrThreads);
  double window_s = 0;
  {
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> workers;
    for (int i = 0; i < kRrThreads; i++) {
      workers.emplace_back(RestartReadClient, store.get(), seed, i, traced,
                           start, end, &threads[i]);
    }
    for (std::thread& t : workers) t.join();
    window_s = SecondsSince(start);
  }
  store->StopGcThread();
  const uint64_t wchar_after = ProcessWriteBytes();
  const std::vector<obs::Sample> after = store->metrics()->Collect();
  const uint64_t log_after = FileBytes(log_path);

  Windows txn_us;
  uint64_t rw_commits = 0, user_bytes = 0, traced_txns = 0, untraced_txns = 0;
  std::unordered_map<std::string, std::vector<std::string>> written;
  for (RrThread& t : threads) {
    report->Count(t.attempted, t.failed);
    if (!t.error.empty()) report->Fail("restart-read: " + t.error);
    txn_us.Append(t.txn_us);
    rw_commits += t.rw_commits;
    user_bytes += t.user_bytes;
    traced_txns += t.traced_txns;
    untraced_txns += t.untraced_txns;
    for (auto& [k, v] : t.writes) written[k].push_back(std::move(v));
  }

  // Every preloaded key must read back its own value, or a value the
  // loop committed to it (a forked branch may hold either).
  std::atomic<uint64_t> bad{0};
  std::atomic<uint64_t> checked{0};
  {
    std::vector<std::thread> checkers;
    for (int c = 0; c < kRrThreads; c++) {
      checkers.emplace_back([&, c] {
        auto session = store->CreateSession();
        for (uint64_t k = c * kRrPreloadBatch; k < kRrKeys;
             k += kRrThreads * kRrPreloadBatch) {
          auto txn = store->Begin(session.get());
          if (!txn.ok()) {
            bad += kRrPreloadBatch;
            continue;
          }
          for (uint64_t i = k; i < std::min(k + kRrPreloadBatch, kRrKeys);
               i++) {
            const std::string key = bench::TxnGenerator::KeyName(i);
            std::string value;
            checked++;
            if (!(*txn)->Get(key, &value).ok()) {
              bad++;
              continue;
            }
            if (value == PreloadValue(seed, i)) continue;
            auto it = written.find(key);
            if (it == written.end() ||
                std::find(it->second.begin(), it->second.end(), value) ==
                    it->second.end()) {
              bad++;
            }
          }
          (*txn)->Abort();
        }
      });
    }
    for (std::thread& t : checkers) t.join();
  }
  if (checked.load() != kRrKeys || bad.load() != 0) {
    report->Fail("restart-read: " + std::to_string(bad.load()) + " of " +
                 std::to_string(checked.load()) +
                 " preloaded keys read back a wrong value");
  }

  fprintf(stdout,
          "restart-read: btree, flush=async, %llu keys x %zu B, buffer pool "
          "%zu pages; %d threads read-heavy uniform, background GC; "
          "%zu txn samples, %llu read-write commits\n",
          static_cast<unsigned long long>(kRrKeys), kRrValueSize,
          options.cache_pages, kRrThreads, txn_us.samples(),
          static_cast<unsigned long long>(rw_commits));

  report->Add("setup_s", Median(setup_s), "s");
  report->Add("txn_per_s", untraced_txns / (traced ? window_s / 2 : window_s),
              "1/s");
  report->Add("txn_p50_us", txn_us.MedianQuantile(0.50), "us");
  report->Add("txn_p99_us", txn_us.MedianQuantile(0.99), "us");
  report->Add("recovery_s", recovery_s, "s");

  ReportStoreCounters(store.get(), before, after, report);
  report->Add("storage.write_bytes_per_user_byte",
              user_bytes > 0 ? static_cast<double>(wchar_after - wchar_before) /
                                   static_cast<double>(user_bytes)
                             : 0,
              "B/B");
  report->Add("storage.space_bytes_per_live_byte",
              static_cast<double>(DirBytes(dir)) /
                  static_cast<double>(live_bytes),
              "B/B");
  report->Add("storage.log_bytes_per_commit",
              rw_commits > 0 ? static_cast<double>(log_after - log_before) /
                                   static_cast<double>(rw_commits)
                             : 0,
              "B/commit");
  report->Add("trace.overhead_pct",
              traced && untraced_txns > 0
                  ? 100.0 * (1 - static_cast<double>(traced_txns) /
                                     static_cast<double>(untraced_txns))
                  : 0,
              "%");
  std::vector<const SpanLog*> logs = {&main_spans};
  for (const RrThread& t : threads) logs.push_back(&t.spans);
  ReportSpans(logs, traced ? trace_out : "", report);
  store.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// ---- site-pair ------------------------------------------------------------
//
// Two tardisd processes (started by run.py) on loopback. Load goes to site
// 0 over kSpClosedClients sessioned TardisClient connections: first a
// closed loop that measures capacity, then an open loop of kSpOpenClients
// connections paced at kSpOpenRate. During the open loop a probe writes
// marker keys on site 0 through the third load connection and polls site 1
// through a fourth until each marker appears: four connections in all.

constexpr uint64_t kSpKeys = 10'000;
constexpr int kSpClosedClients = 3;
constexpr int kSpOpenClients = 2;
// Requests per second across the open loop: a constant, about half the
// closed-loop capacity of a 4-core box, so every commit is measured at the
// same offered load.
constexpr double kSpOpenRate = 12'000;
// Share of --seconds for the closed loop; the open loop gets the rest.
constexpr double kSpClosedShare = 0.4;
constexpr int64_t kSpProbeGapNs = 2'000'000;
constexpr int64_t kSpProbeTimeoutNs = 2'000'000'000;
constexpr uint64_t kSpCheckedKeys = 500;
constexpr uint64_t kSpDeadlineMs = 5000;
constexpr double kSpLimitUs = 1000;  // the open loop's p99 latency limit
// A failed request counts as missing the latency limit: it is recorded as
// taking the whole client deadline.
constexpr double kSpFailedUs = kSpDeadlineMs * 1000.0;

std::unique_ptr<client::TardisClient> NewClient(const std::string& endpoint,
                                                uint64_t seed, uint64_t id) {
  client::TardisClientOptions o;
  o.endpoints = {endpoint};
  o.request_deadline_ms = kSpDeadlineMs;
  o.seed = seed * 31 + id + 1;
  o.session_id = (seed << 8) + id + 1;
  return std::make_unique<client::TardisClient>(o);
}

/// One site-0 load connection. It alone writes the keys k with
/// k % kSpClosedClients == index, so it knows every key's last value.
struct SpLoad {
  int index = 0;
  uint64_t seed = 0;
  std::unique_ptr<client::TardisClient> client;
  Random rng{1};
  SpanLog spans;
  uint64_t writes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t puts_acked = 0;
  uint64_t closed_untraced = 0;
  uint64_t closed_traced = 0;
  Windows closed_us;  // closed-loop request latencies, per second
  // Open-loop latencies from each request's due time, per second.
  Windows put_us;
  Windows get_us;
  Windows all_us;
  std::vector<double> lateness_us;
  std::map<uint64_t, std::string> last;  // key -> last acknowledged value
  std::set<uint64_t> unknown;            // last put's outcome unknown
  std::string error;

  /// One put or get, 50/50. Returns false on a failed request.
  bool Op(uint64_t request, bool* is_put) {
    const uint64_t per_client = (kSpKeys + kSpClosedClients - 1 -
                                 static_cast<uint64_t>(index)) /
                                kSpClosedClients;
    const uint64_t k = static_cast<uint64_t>(index) +
                       kSpClosedClients * rng.Uniform(per_client);
    const std::string key = bench::TxnGenerator::KeyName(k);
    *is_put = rng.Bernoulli(0.5);
    attempted++;
    Status s;
    if (*is_put) {
      const std::string value = "v" + std::to_string(seed) + "-" +
                                std::to_string(index) + "-" +
                                std::to_string(++writes);
      {
        ScopedSpan span(&spans, "client.put", request);
        s = client->Put(key, value);
      }
      if (s.ok()) {
        puts_acked++;
        last[k] = value;
        unknown.erase(k);
      } else {
        unknown.insert(k);
      }
    } else {
      std::string value;
      {
        ScopedSpan span(&spans, "client.get", request);
        s = client->Get(key, &value);
      }
      if (s.IsNotFound()) {
        value.clear();
        s = Status::OK();
      }
      // Read-your-writes on the only writer of this key.
      auto it = last.find(k);
      const std::string& expected = it == last.end() ? "" : it->second;
      if (s.ok() && !unknown.count(k) && value != expected) {
        error = "site 0 read " + key + " = '" + value + "', expected '" +
                expected + "'";
      }
    }
    if (!s.ok()) {
      failed++;
      error = s.ToString();
    }
    return s.ok();
  }
};

void ClosedLoop(SpLoad* load, bool traced, int64_t start, int64_t end) {
  uint64_t request = static_cast<uint64_t>(load->index) << 48;
  for (int64_t now = NowNs(); now < end; now = NowNs()) {
    const bool trace_slice = traced && ((now - start) / kTraceSliceNs) % 2;
    load->spans.set_enabled(trace_slice);
    bool is_put = false;
    bool ok = false;
    {
      ScopedSpan op(&load->spans, "workload.op", ++request);
      ok = load->Op(request, &is_put);
    }
    if (trace_slice) {
      load->closed_traced += ok;
      continue;
    }
    load->closed_untraced += ok;
    load->closed_us.Add((now - start) / Windows::kSpanNs,
                        ok ? (NowNs() - now) / 1e3 : kSpFailedUs);
  }
  load->spans.set_enabled(false);
}

/// Sleeps until `due_ns`, spinning the last stretch so timer slack does
/// not show up as request latency.
void WaitUntil(int64_t due_ns) {
  const int64_t now = NowNs();
  if (due_ns - now > 300'000) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - 200'000));
  }
  while (NowNs() < due_ns) std::this_thread::yield();
}

void OpenLoop(SpLoad* load, bool traced, int64_t start, int64_t end) {
  const int64_t interval =
      static_cast<int64_t>(1e9 * kSpOpenClients / kSpOpenRate);
  const int64_t first = start + load->index * interval / kSpOpenClients;
  uint64_t request = (static_cast<uint64_t>(load->index) << 48) + (1ull << 40);
  for (int64_t due = first; due < end; due += interval) {
    WaitUntil(due);
    const int64_t sent = NowNs();
    const bool trace_slice = traced && ((due - start) / kTraceSliceNs) % 2;
    load->spans.set_enabled(trace_slice);
    bool is_put = false;
    bool ok = false;
    {
      // The root span starts at the due time: its self time is how late
      // the generator sent the request.
      const int32_t op = load->spans.Open("workload.op", ++request, due);
      ok = load->Op(request, &is_put);
      load->spans.Close(op);
    }
    if (trace_slice) continue;
    const double us = ok ? (NowNs() - due) / 1e3 : kSpFailedUs;
    const size_t window = (due - start) / Windows::kSpanNs;
    (is_put ? load->put_us : load->get_us).Add(window, us);
    load->all_us.Add(window, us);
    load->lateness_us.push_back((sent - due) / 1e3);
  }
  load->spans.set_enabled(false);
}

struct SpProbe {
  std::unique_ptr<client::TardisClient> writer;  // site 0
  std::unique_ptr<client::TardisClient> reader;  // site 1
  SpanLog spans;
  std::vector<bool> acked;  // per marker (index i - 1): its put succeeded
  uint64_t failed = 0;
  std::vector<double> visible_us;
  std::string error;
};

std::string MarkerKey(uint64_t i) { return "probe" + std::to_string(i); }
std::string MarkerValue(uint64_t seed, uint64_t i) {
  return "p" + std::to_string(seed) + "-" + std::to_string(i);
}

void Probe(SpProbe* probe, uint64_t seed, bool traced, int64_t start,
           int64_t end) {
  for (int64_t now = NowNs(); now < end; now = NowNs()) {
    const uint64_t i = probe->acked.size() + 1;
    const std::string key = MarkerKey(i);
    const std::string value = MarkerValue(seed, i);
    probe->spans.set_enabled(traced && ((now - start) / kTraceSliceNs) % 2);
    int64_t seen_ns = 0;
    Status s;
    {
      ScopedSpan root(&probe->spans, "repl.visible", i);
      {
        ScopedSpan span(&probe->spans, "client.put", i);
        s = probe->writer->Put(key, value);
      }
      probe->acked.push_back(s.ok());
      while (s.ok() && NowNs() - now < kSpProbeTimeoutNs) {
        std::string v;
        Status g = probe->reader->Get(key, &v);
        if (g.ok() && v == value) {
          seen_ns = NowNs();
          break;
        }
        if (!g.ok() && !g.IsNotFound()) s = g;
      }
    }
    if (seen_ns == 0) {
      probe->failed++;
      probe->error = s.ok() ? key + " never became visible" : s.ToString();
    } else if (!probe->spans.enabled()) {
      probe->visible_us.push_back((seen_ns - now) / 1e3);
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(kSpProbeGapNs));
  }
  probe->spans.set_enabled(false);
}

/// A daemon's `metrics prom` and `health` replies as series -> value
/// ("name{labels}" for Prometheus series, "health.<field>" for health).
std::map<std::string, double> Scrape(client::TardisClient* c,
                                     std::string* error) {
  std::map<std::string, double> out;
  std::string body;
  Status s = c->CallMulti("metrics prom", &body);
  if (!s.ok()) {
    *error = "metrics: " + s.ToString();
    return out;
  }
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = atof(line.c_str() + sp + 1);
  }
  s = c->CallMulti("health", &body);
  if (!s.ok()) {
    *error = "health: " + s.ToString();
    return out;
  }
  std::istringstream fields(body.substr(0, body.find('\n')));
  std::string field;
  while (fields >> field) {
    const size_t eq = field.find('=');
    if (eq != std::string::npos) {
      out["health." + field.substr(0, eq)] = atof(field.c_str() + eq + 1);
    }
  }
  return out;
}

/// Sum of every series of metric `name` whose labels contain `label`.
double Series(const std::map<std::string, double>& m, const std::string& name,
              const std::string& label = "") {
  double sum = 0;
  for (const auto& [series, value] : m) {
    const std::string base = series.substr(0, series.find('{'));
    if (base == name && series.find(label) != std::string::npos) sum += value;
  }
  return sum;
}

double SeriesDelta(const std::map<std::string, double>& before,
                   const std::map<std::string, double>& after,
                   const std::string& name, const std::string& label = "") {
  return Series(after, name, label) - Series(before, name, label);
}

double StageMeanUs(const std::map<std::string, double>& before,
                   const std::map<std::string, double>& after,
                   const std::string& stage) {
  const std::string label = "stage=\"" + stage + "\"";
  const double n =
      SeriesDelta(before, after, "tardis_stage_micros_count", label);
  return n > 0
             ? SeriesDelta(before, after, "tardis_stage_micros_sum", label) / n
               : 0;
}

void RunSitePair(uint64_t seed, double seconds, bool traced,
                 const std::string& site0, const std::string& site1,
                 const std::string& trace_out, Report* report) {
  std::vector<std::unique_ptr<SpLoad>> loads;
  for (int i = 0; i < kSpClosedClients; i++) {
    auto load = std::make_unique<SpLoad>();
    load->index = i;
    load->seed = seed;
    load->client = NewClient(site0, seed, static_cast<uint64_t>(i));
    load->rng =
        Random(seed * 6364136223846793005ull + static_cast<uint64_t>(i));
    loads.push_back(std::move(load));
  }
  // The probe's writer is the closed loop's last connection, so the
  // generator holds kSpClosedClients + 1 connections in all.
  SpProbe probe;
  probe.reader = NewClient(site1, seed, 100);
  client::TardisClient* site0_admin = loads.back()->client.get();

  std::string error;
  const auto before0 = Scrape(site0_admin, &error);
  const auto before1 = Scrape(probe.reader.get(), &error);

  const int64_t closed_start = NowNs();
  const double closed_s = seconds * kSpClosedShare;
  const int64_t closed_end =
      closed_start + static_cast<int64_t>(closed_s * 1e9);
  {
    std::vector<std::thread> threads;
    for (auto& load : loads) {
      threads.emplace_back(ClosedLoop, load.get(), traced, closed_start,
                           closed_end);
    }
    for (std::thread& t : threads) t.join();
  }
  const double closed_elapsed_s = SecondsSince(closed_start);

  const int64_t open_start = NowNs();
  const int64_t open_end =
      open_start + static_cast<int64_t>((seconds - closed_s) * 1e9);
  // The probe borrows the last load connection's client for its writes.
  probe.writer = std::move(loads.back()->client);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kSpOpenClients; i++) {
      threads.emplace_back(OpenLoop, loads[i].get(), traced, open_start,
                           open_end);
    }
    threads.emplace_back(Probe, &probe, seed, traced, open_start, open_end);
    for (std::thread& t : threads) t.join();
  }
  loads.back()->client = std::move(probe.writer);
  site0_admin = loads.back()->client.get();
  const auto after0 = Scrape(site0_admin, &error);
  const auto after1 = Scrape(probe.reader.get(), &error);
  if (!error.empty()) report->Fail("site-pair: scrape: " + error);

  // After sync, sampled keys and every marker must read the same on both
  // sites, and site 0 must hold each key's last acknowledged value.
  std::string reply;
  site0_admin->Call("sync", &reply);
  probe.reader->Call("sync", &reply);
  struct Expect {
    std::string key;
    std::string value;  // "" = not found
    bool known = true;
  };
  std::vector<Expect> expect;
  Random pick(seed ^ 0xC0FFEE);
  for (uint64_t n = 0; n < kSpCheckedKeys; n++) {
    const uint64_t k = pick.Uniform(kSpKeys);
    const SpLoad& owner = *loads[k % kSpClosedClients];
    auto it = owner.last.find(k);
    expect.push_back({bench::TxnGenerator::KeyName(k),
                      it == owner.last.end() ? "" : it->second,
                      owner.unknown.count(k) == 0});
  }
  for (uint64_t i = 1; i <= probe.acked.size(); i++) {
    expect.push_back({MarkerKey(i), MarkerValue(seed, i), probe.acked[i - 1]});
  }
  const int64_t check_deadline = NowNs() + 10'000'000'000;
  size_t mismatched = 0;
  std::string mismatch;
  for (const Expect& e : expect) {
    for (;;) {
      std::string v0, v1;
      Status s0 = site0_admin->Get(e.key, &v0);
      Status s1 = probe.reader->Get(e.key, &v1);
      const bool ok0 = s0.ok() || s0.IsNotFound();
      const bool ok1 = s1.ok() || s1.IsNotFound();
      if (!s0.ok()) v0.clear();
      if (!s1.ok()) v1.clear();
      if (ok0 && ok1 && v0 == v1 && (!e.known || v0 == e.value)) break;
      if (NowNs() > check_deadline) {
        mismatched++;
        mismatch = e.key + ": site0='" + v0 + "' site1='" + v1 +
                   "' expected='" + e.value + "'";
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  if (mismatched > 0) {
    report->Fail("site-pair: " + std::to_string(mismatched) + " of " +
                 std::to_string(expect.size()) +
                 " checked keys differ after sync, e.g. " + mismatch);
  }

  Windows closed_us, put_us, get_us, all_us;
  std::vector<double> lateness_us;
  uint64_t closed_untraced = 0, closed_traced = 0, puts = 0;
  uint64_t retries = probe.reader->retries();
  uint64_t failovers = probe.reader->failovers();
  for (auto& load : loads) {
    report->Count(load->attempted, load->failed);
    if (!load->error.empty()) report->Fail("site-pair: " + load->error);
    closed_us.Append(load->closed_us);
    put_us.Append(load->put_us);
    get_us.Append(load->get_us);
    all_us.Append(load->all_us);
    lateness_us.insert(lateness_us.end(), load->lateness_us.begin(),
                       load->lateness_us.end());
    closed_untraced += load->closed_untraced;
    closed_traced += load->closed_traced;
    puts += load->puts_acked;
    retries += load->client->retries();
    failovers += load->client->failovers();
  }
  report->Count(probe.acked.size(), probe.failed);
  if (!probe.error.empty()) report->Fail("site-pair: probe: " + probe.error);
  puts += std::count(probe.acked.begin(), probe.acked.end(), true);

  fprintf(stdout,
          "site-pair: closed loop %d connections for %.1f s (%zu samples), "
          "open loop %d connections at %.0f req/s for %.1f s (%zu put + %zu "
          "get samples), %zu markers\n",
          kSpClosedClients, closed_s, closed_us.samples(), kSpOpenClients,
          kSpOpenRate, seconds - closed_s, put_us.samples(), get_us.samples(),
          probe.visible_us.size());
  const double open_p99 = all_us.MedianQuantile(0.99);
  fprintf(stdout, "  open loop p99 %.0f us: the %.0f us limit is %s\n",
          open_p99, kSpLimitUs, open_p99 <= kSpLimitUs ? "met" : "missed");

  const double ops_per_s =
      closed_untraced / (traced ? closed_elapsed_s / 2 : closed_elapsed_s);
  report->Add("setup_s", 0, "s");  // measured by run.py, which starts the sites
  report->Add("txn_per_s", ops_per_s, "1/s");
  report->Add("txn_p50_us", closed_us.MedianQuantile(0.50), "us");
  report->Add("txn_p99_us", closed_us.MedianQuantile(0.99), "us");
  report->Add("ops_per_s", ops_per_s, "1/s");
  report->Add("put_p50_us", put_us.MedianQuantile(0.50), "us");
  report->Add("put_p99_us", put_us.MedianQuantile(0.99), "us");
  report->Add("get_p50_us", get_us.MedianQuantile(0.50), "us");
  report->Add("get_p99_us", get_us.MedianQuantile(0.99), "us");
  report->Add("repl_visible_p50_us", Quantile(probe.visible_us, 0.50), "us");
  report->Add("repl_visible_p99_us", Quantile(probe.visible_us, 0.99), "us");

  report->Add("server.queue_wait_us",
              StageMeanUs(before0, after0, "queue_wait"), "us");
  report->Add("server.shed",
              SeriesDelta(before0, after0, "health.shed") +
                  SeriesDelta(before1, after1, "health.shed"),
              "count");
  report->Add("server.expired",
              SeriesDelta(before0, after0, "health.expired") +
                  SeriesDelta(before1, after1, "health.expired"),
              "count");
  report->Add("repl.send_us", StageMeanUs(before0, after0, "repl_send"), "us");
  const double per_put = puts > 0 ? 1.0 / static_cast<double>(puts) : 0;
  report->Add("repl.applied_per_put",
              per_put * SeriesDelta(before1, after1,
                                    "tardis_repl_applied_total"),
              "1/put");
  report->Add("net.bytes_per_put",
              per_put * SeriesDelta(before0, after0,
                                    "tardis_net_bytes_sent_total"),
              "B/put");
  report->Add("client.retries", static_cast<double>(retries), "count");
  report->Add("client.failovers", static_cast<double>(failovers), "count");
  report->Add("session.dedup_hits",
              SeriesDelta(before0, after0, "tardis_session_dedup_hits"),
              "count");
  report->Add("gen.lateness_p99_us", Quantile(lateness_us, 0.99), "us");
  report->Add("trace.overhead_pct",
              traced && closed_untraced > 0
                  ? 100.0 * (1 - static_cast<double>(closed_traced) /
                                     static_cast<double>(closed_untraced))
                  : 0,
              "%");
  std::vector<const SpanLog*> logs = {&probe.spans};
  for (const auto& load : loads) logs.push_back(&load->spans);
  ReportSpans(logs, traced ? trace_out : "", report);
}

}  // namespace
}  // namespace perfbench
}  // namespace tardis

int main(int argc, char** argv) {
  using namespace tardis::perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      fprintf(stderr, "perfbench: bad argument '%s'\n", a.c_str());
      return 2;
    }
    args[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  const std::string workload = args["workload"];
  const uint64_t seed = strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = atof(args["seconds"].c_str());
  const bool traced = args["trace"] == "1";
  if (seconds <= 0) {
    fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  Report report;
  if (workload == "branch-merge") {
    RunBranchMerge(seed, seconds, traced, args["trace-out"], &report);
  } else if (workload == "restart-read") {
    RunRestartRead(seed, seconds, traced, args["workdir"], args["trace-out"],
                   &report);
  } else if (workload == "site-pair") {
    RunSitePair(seed, seconds, traced, args["site0"], args["site1"],
                args["trace-out"], &report);
  } else {
    fprintf(stderr, "perfbench: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  report.Print(kMetrics);
  return 0;
}
