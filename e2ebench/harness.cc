// End-to-end benchmark harness. One process runs one workload:
//   1. set-up, five times untraced (once traced), keeping the last: build
//      the dataset, then send each (strategy, budget) pair of the workload
//      once. The first request on a fresh Database computes its TableStats,
//      and the responses are the references every later response must
//      match byte for byte. All of this counts toward setup_s.
//   2. the timed window: requests go through a TuningService for
//      --seconds, closed loop or on a Poisson schedule;
//   3. output checks on every response, then metrics into a BenchReport.
// The traced run also cuts a span tree per request at the progress
// callbacks, and runs direct-call probes after the window so they do not
// perturb the timed requests.
#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "advisor/candidates.h"
#include "common/bench_report.h"
#include "engine/advisor_engine.h"
#include "service/tuning_service.h"
#include "workloads/registry.h"

namespace capd {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

Clock::time_point PlusMs(Clock::time_point t, double ms) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

// Linear interpolation between closest ranks, p in [0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// Peak resident set (VmHWM) in MiB, from /proc/self/status; 0 without it.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// README.md says why each workload exists and how it was sized.
struct WorkloadDef {
  const char* name;
  const char* dataset;   // workloads::Build name
  uint64_t rows;         // fact-table rows
  double insert_weight;  // Workload::WithInsertWeight factor
  bool cold;             // fresh AdvisorEngine and service per request
  // Estimation threads of the timed requests; warm-up requests use one, so
  // every timed response is checked against a serial reference. The search
  // loop always runs on one thread: with more, concurrent misses on the
  // statement cost cache make stmt_costs_computed/cached in the JSON report
  // vary from run to run.
  int estimation_threads;
  int workers;           // TuningService workers
  int clients;           // closed-loop clients; a cold workload has one
  bool mixed;            // strategy x budget mix instead of dtac-both 20%
};

constexpr WorkloadDef kWorkloads[] = {
    {"scale-cold", "scale", 30000, 1.0, true, 2, 1, 1, false},
    {"tpch-select-warm", "tpch", 24000, 1.0, false, 1, 1, 1, false},
    {"tpch-insert-warm", "tpch", 24000, 3.0, false, 1, 1, 1, false},
    {"service-closed", "tpch", 24000, 1.0, false, 1, 2, 3, true},
};

struct Pair {
  std::string strategy;
  double budget;  // fraction of the base data size

  std::string Label() const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s,%g", strategy.c_str(), budget);
    return buf;
  }
};

// Pair 0 is the reference request the deterministic per-layer counters are
// read from. The budgets are ones at which every seed's data yields the
// same number of chosen indexes, so the seed does not switch a run between
// two amounts of work. The mix has three strategies of distinct cost in
// equal shares, so its median and 90th percentile fall inside a strategy's
// latency range rather than in the gap between two.
std::vector<Pair> PairsFor(const WorkloadDef& w) {
  if (!w.mixed) return {{"dtac-both", 0.20}};
  std::vector<Pair> pairs;
  for (const char* strategy : {"dtac-both", "dtac-skyline", "dtac-topk"}) {
    for (const double budget : {0.20, 0.05, 0.10}) {
      pairs.push_back({strategy, budget});
    }
  }
  return pairs;
}

struct Flags {
  std::string workload;
  uint64_t seed = 20110829;
  double seconds = 10.0;
  std::string json_path;
  std::string spans_path;
};

bool ParseFlags(int argc, char** argv, Flags* flags, std::string* error) {
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      flags->workload = value;
    } else if (flag == "--seed") {
      flags->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') {
        *error = "--seed wants a non-negative integer, got " + value;
        return false;
      }
    } else if (flag == "--seconds") {
      flags->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !std::isfinite(flags->seconds) ||
          flags->seconds <= 0.0 || flags->seconds > 3600.0) {
        *error = "--seconds wants a number in (0, 3600], got " + value;
        return false;
      }
    } else if (flag == "--json") {
      flags->json_path = value;
    } else if (flag == "--spans") {
      flags->spans_path = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (flags->workload.empty() || flags->json_path.empty()) {
    *error = "--workload and --json are required";
    return false;
  }
  return true;
}

std::unique_ptr<AdvisorEngine> MakeEngine(const Database& db,
                                          uint64_t sample_seed, int threads) {
  EngineOptions options;
  options.estimation_threads = threads;
  options.sample_seed = sample_seed;
  return std::make_unique<AdvisorEngine>(db, options);
}

std::unique_ptr<TuningService> MakeService(AdvisorEngine* engine,
                                           int workers) {
  ServiceOptions options;
  options.num_workers = workers;
  options.max_queue = 1 << 20;  // admission control never fires
  options.high_watermark = 0;   // no degradation
  return std::make_unique<TuningService>(engine, options);
}

// What one set-up leaves behind. Members are destroyed in reverse order, so
// the service stops before its engine, and the engine goes before the db.
struct Stack {
  std::unique_ptr<Database> db;
  Workload workload;
  uint64_t sample_seed = 0;
  std::unique_ptr<AdvisorEngine> engine;    // cold: the last warm-up's
  std::unique_ptr<TuningService> service;  // warm workloads only
  std::vector<TuningResponse> refs;         // warm-up response per pair
};

struct SetupTimes {
  double setup_ms = 0.0;
  double build_ms = 0.0;
  double table_stats_ms = 0.0;  // the first request's candidates phase
  uint64_t sample_rows_scanned = 0;
  uint64_t samples_drawn = 0;
};

// Phase boundaries of one request, appended by the progress callback on the
// service worker; Ticket::Wait orders these writes before the client reads.
using PhaseMarks = std::vector<std::pair<std::string, Clock::time_point>>;

struct Sent {
  size_t pair = 0;
  Clock::time_point due;  // when the request should have been sent
  Clock::time_point submitted;
  std::shared_ptr<PhaseMarks> marks;  // null when the phases are not traced
  std::shared_ptr<TuningService::Ticket> ticket;
};

// `estimation_threads` < 0 keeps the engine's default.
Sent Send(TuningService* service, const Workload& workload, const Pair& pair,
          size_t pair_index, Clock::time_point due, bool traced,
          int estimation_threads = -1) {
  ServiceRequest request;
  request.tuning.workload = workload;
  request.tuning.strategy = pair.strategy;
  request.tuning.budget = TuningBudget::Fraction(pair.budget);
  request.tuning.estimation_threads = estimation_threads;
  Sent sent;
  sent.pair = pair_index;
  sent.due = due;
  if (traced) {
    sent.marks = std::make_shared<PhaseMarks>();
    request.tuning.progress = [marks = sent.marks](const std::string& phase) {
      marks->emplace_back(phase, Clock::now());
    };
  }
  sent.submitted = Clock::now();
  sent.ticket = service->Submit(request);
  return sent;
}

// Empty when the response passes every output check; `ref` may be null.
std::string CheckResponse(const ServiceResponse& r, const TuningResponse* ref) {
  if (r.status != ServiceStatus::kOk) {
    return std::string("service status ") + ServiceStatusName(r.status) +
           " " + r.error;
  }
  if (!r.tuning.ok()) return "engine status not ok: " + r.tuning.error;
  if (r.tuning.result.charged_bytes > r.tuning.budget_bytes) {
    return "charged bytes exceed the budget";
  }
  if (ref != nullptr && r.tuning.json != ref->json) {
    return "JSON report differs from the first response to this request";
  }
  return "";
}

// Sets up the workload once. Returns null with *error set when the dataset
// cannot be built or a warm-up response fails a check.
std::unique_ptr<Stack> SetUp(const WorkloadDef& w,
                             const std::vector<Pair>& pairs, uint64_t seed,
                             int threads, SetupTimes* times,
                             std::string* error) {
  const Clock::time_point t0 = Clock::now();
  workloads::WorkloadSpec spec;
  spec.name = w.dataset;
  spec.rows = w.rows;
  spec.seed = seed;
  workloads::BuiltWorkload built;
  if (!workloads::Build(spec, &built, error)) return nullptr;
  auto s = std::make_unique<Stack>();
  s->db = std::move(built.db);
  s->workload = built.workload.WithInsertWeight(w.insert_weight);
  s->sample_seed = built.seed ^ 0xabcd;
  times->build_ms = MsBetween(t0, Clock::now());

  s->engine = MakeEngine(*s->db, s->sample_seed, threads);
  if (!w.cold) s->service = MakeService(s->engine.get(), w.workers);
  // Sent one at a time: the first request fills the Database's TableStats
  // cache, which is not safe to fill from two workers at once.
  for (size_t i = 0; i < pairs.size(); ++i) {
    std::unique_ptr<TuningService> cold_service;
    if (w.cold) {
      if (i > 0) s->engine = MakeEngine(*s->db, s->sample_seed, threads);
      cold_service = MakeService(s->engine.get(), w.workers);
    }
    TuningService* service = w.cold ? cold_service.get() : s->service.get();
    const Sent sent = Send(service, s->workload, pairs[i], i, Clock::now(),
                           /*traced=*/i == 0, /*estimation_threads=*/1);
    const ServiceResponse& r = sent.ticket->Wait();
    const std::string why = CheckResponse(r, nullptr);
    if (!why.empty()) {
      *error = "warm-up request " + pairs[i].Label() + ": " + why;
      return nullptr;
    }
    if (i == 0) {
      if (!sent.marks->empty()) {
        times->table_stats_ms =
            MsBetween(PlusMs(sent.submitted, r.queue_ms),
                      sent.marks->front().second);
      }
      times->sample_rows_scanned = s->engine->samples()->rows_scanned();
      times->samples_drawn = s->engine->samples()->num_samples();
    }
    s->refs.push_back(r.tuning);
  }
  times->setup_ms = MsBetween(t0, Clock::now());
  return s;
}

struct Span {
  std::string name;
  uint64_t request = 0;
  int parent = -1;  // index into the same vector; -1 = root
  double start_ms = 0.0;  // since the timed window opened
  double end_ms = 0.0;
  double self_ms = 0.0;
};

std::string PhaseSpanName(const std::string& phase) {
  return phase == "estimation" ? "estimator.estimation" : "advisor." + phase;
}

// Self time: a span's duration minus the part of it its children cover.
void SetSelfTimes(std::vector<Span>* spans, size_t first) {
  for (size_t i = first; i < spans->size(); ++i) {
    Span& span = (*spans)[i];
    std::vector<std::pair<double, double>> covered;
    for (size_t j = first; j < spans->size(); ++j) {
      const Span& child = (*spans)[j];
      if (child.parent != static_cast<int>(i)) continue;
      covered.emplace_back(std::max(child.start_ms, span.start_ms),
                           std::min(child.end_ms, span.end_ms));
    }
    std::sort(covered.begin(), covered.end());
    double covered_ms = 0.0;
    double reach = span.start_ms;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) covered_ms += hi - from;
      reach = std::max(reach, hi);
    }
    span.self_ms = (span.end_ms - span.start_ms) - covered_ms;
  }
}

// Appends the span tree of one resolved request:
//   service.request  [due, resolved]
//     service.queue  [submitted, run start]
//     service.run    [run start, resolved]
//       one span per advisor phase, cut at the progress callbacks
//       engine.report [last callback, resolved]: text and JSON rendering
// Run start and resolution are the client's submit time plus the
// service's queue_ms and run_ms. Returns false when the self times do not
// add up to the root span within 5%.
bool AppendRequestSpans(uint64_t id, const Sent& s, const ServiceResponse& r,
                        Clock::time_point epoch, std::vector<Span>* spans) {
  const Clock::time_point run_start = PlusMs(s.submitted, r.queue_ms);
  const Clock::time_point end = PlusMs(run_start, r.run_ms);
  auto at = [&](Clock::time_point t) { return MsBetween(epoch, t); };
  const size_t root = spans->size();
  const int root_parent = static_cast<int>(root);
  const int run_parent = static_cast<int>(root + 2);
  spans->push_back({"service.request", id, -1, at(s.due), at(end)});
  spans->push_back({"service.queue", id, root_parent, at(s.submitted),
                    at(run_start)});
  spans->push_back({"service.run", id, root_parent, at(run_start), at(end)});
  double cut = at(run_start);
  for (const auto& [phase, t] : *s.marks) {
    const double next = std::clamp(at(t), cut, at(end));
    spans->push_back({PhaseSpanName(phase), id, run_parent, cut, next});
    cut = next;
  }
  spans->push_back({"engine.report", id, run_parent, cut, at(end)});
  SetSelfTimes(spans, root);
  double self_sum = 0.0;
  for (size_t i = root; i < spans->size(); ++i) {
    self_sum += (*spans)[i].self_ms;
  }
  const double root_ms = (*spans)[root].end_ms - (*spans)[root].start_ms;
  return std::fabs(self_sum - root_ms) <= 0.05 * root_ms;
}

bool WriteSpans(const std::string& path, const std::string& workload,
                const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"workload\": \"%s\", \"spans\": [\n", workload.c_str());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"parent\": %d, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": %.6f, "
                 "\"self_ms\": %.6f}%s\n",
                 i, s.parent, static_cast<unsigned long long>(s.request),
                 s.name.c_str(), s.start_ms, s.end_ms, s.self_ms,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

// Everything the timed window measured.
struct Window {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> latency_ms;  // due -> resolved
  double late_ms_max = 0.0;        // due -> submitted
  // Summed over every engine / service the window used.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t retries = 0;
  uint64_t rejected = 0;
  // Traced only.
  std::vector<Span> spans;
  std::vector<double> us_per_costing;  // per request
};

void Record(const Stack& s, const Sent& sent, const ServiceResponse& r,
            Clock::time_point epoch, Window* win) {
  ++win->attempted;
  std::string why = CheckResponse(r, &s.refs[sent.pair]);
  const double late = MsBetween(sent.due, sent.submitted);
  win->late_ms_max = std::max(win->late_ms_max, late);
  win->latency_ms.push_back(late + r.queue_ms + r.run_ms);
  if (sent.marks != nullptr) {
    const size_t first = win->spans.size();
    if (!AppendRequestSpans(win->attempted, sent, r, epoch, &win->spans) &&
        why.empty()) {
      why = "phase self times do not add up to the request span";
    }
    double search_ms = 0.0;
    for (size_t i = first; i < win->spans.size(); ++i) {
      const Span& span = win->spans[i];
      if (span.name == "advisor.selection" ||
          span.name == "advisor.enumeration") {
        search_ms += span.self_ms;
      }
    }
    const size_t computed = r.tuning.result.stmt_costs_computed;
    if (computed > 0) {
      win->us_per_costing.push_back(search_ms * 1000.0 /
                                    static_cast<double>(computed));
    }
  }
  if (!why.empty()) {
    ++win->failed;
    if (win->failed <= 3) {
      std::fprintf(stderr, "request %llu failed: %s\n",
                   static_cast<unsigned long long>(win->attempted),
                   why.c_str());
    }
  }
}

void AddServiceStats(const ServiceStats& after, const ServiceStats& before,
                     Window* win) {
  win->retries += after.retries - before.retries;
  win->rejected += after.rejected - before.rejected;
}

// Closed loop: each of w.clients clients sends its next request as soon as
// its previous reply arrives, so that is when the request is due. Client c
// walks the pairs round-robin from offset c * pairs / clients, so every
// pair runs equally often. A cold workload has one client, which builds a
// fresh engine and service per request outside the request's time.
void RunClients(const WorkloadDef& w, const std::vector<Pair>& pairs,
                Stack* s, int threads, double seconds, bool traced,
                Window* win) {
  const Clock::time_point epoch = Clock::now();
  const Clock::time_point end = PlusMs(epoch, seconds * 1000.0);
  const uint64_t hits0 = s->engine->estimation_cache()->hits();
  const uint64_t misses0 = s->engine->estimation_cache()->misses();
  const ServiceStats stats0 = w.cold ? ServiceStats() : s->service->stats();
  std::mutex mu;  // guards *win
  auto run_client = [&](int c) {
    size_t next = static_cast<size_t>(c) * pairs.size() / w.clients;
    Clock::time_point due = epoch;
    while (Clock::now() < end) {
      std::unique_ptr<AdvisorEngine> engine;
      std::unique_ptr<TuningService> service;
      TuningService* target = s->service.get();
      if (w.cold) {
        engine = MakeEngine(*s->db, s->sample_seed, threads);
        service = MakeService(engine.get(), w.workers);
        target = service.get();
        due = Clock::now();
      }
      const size_t pair = next++ % pairs.size();
      const Sent sent =
          Send(target, s->workload, pairs[pair], pair, due, traced);
      const ServiceResponse& r = sent.ticket->Wait();
      due = Clock::now();
      std::lock_guard<std::mutex> lock(mu);
      Record(*s, sent, r, epoch, win);
      if (w.cold) {
        win->cache_hits += engine->estimation_cache()->hits();
        win->cache_misses += engine->estimation_cache()->misses();
        AddServiceStats(service->stats(), ServiceStats(), win);
      }
    }
  };
  // An exception ends its client and counts as one failed request.
  auto client = [&](int c) {
    try {
      run_client(c);
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu);
      ++win->failed;
      std::fprintf(stderr, "client %d stopped: %s\n", c, e.what());
    }
  };
  std::vector<std::thread> others;
  for (int c = 1; c < w.clients; ++c) others.emplace_back(client, c);
  client(0);
  for (std::thread& t : others) t.join();
  if (!w.cold) {
    win->cache_hits += s->engine->estimation_cache()->hits() - hits0;
    win->cache_misses += s->engine->estimation_cache()->misses() - misses0;
    AddServiceStats(s->service->stats(), stats0, win);
  }
}

const char* CodecLabel(CompressionKind kind) {
  switch (kind) {
    case CompressionKind::kRow:
      return "row";
    case CompressionKind::kPage:
      return "page";
    default:
      return nullptr;
  }
}

// Mean microseconds per WhatIfOptimizer::Cost call over the workload's
// statements of one kind, repeated for at least 50 ms.
double CostUs(const WhatIfOptimizer& optimizer, const Workload& workload,
              StatementType type, const Configuration& config) {
  std::vector<const Statement*> stmts;
  for (const Statement& stmt : workload.statements) {
    if (stmt.type == type) stmts.push_back(&stmt);
  }
  if (stmts.empty()) return 0.0;
  uint64_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed_ms = 0.0;
  while (elapsed_ms < 50.0) {
    for (const Statement* stmt : stmts) optimizer.Cost(*stmt, config);
    calls += stmts.size();
    elapsed_ms = MsBetween(t0, Clock::now());
  }
  return elapsed_ms * 1000.0 / static_cast<double>(calls);
}

// Direct calls into single layers, run after the timed window.
void RunProbes(const Stack& s, AllocCounter alloc_count, BenchReport* report) {
  const TuningResponse& ref = s.refs[0];
  const AdvisorOptions options =
      StrategyRegistry::Global().Find(ref.strategy)->MakeOptions();
  CandidateGenerator generator(*s.db, s.engine->optimizer(), s.engine->mvs(),
                               options);
  const std::vector<IndexDef> candidates =
      generator.GenerateForWorkload(s.workload);
  report->AddCounter("advisor.candidates_generated", candidates.size());

  // SampleCF per codec at the reference's sampling fraction, on a fresh
  // SampleManager. Each table's sample is drawn before its first timed call.
  const double f = ref.result.chosen_f;
  SampleManager samples(s.sample_seed);
  TableSampleSource source(*s.db, &samples);
  SampleCfEstimator estimator(*s.db, &source);
  std::map<std::string, std::pair<double, uint64_t>> by_codec;  // ms, calls
  uint64_t allocs = 0;
  uint64_t sample_rows = 0;
  for (const IndexDef& def : candidates) {
    const char* codec = CodecLabel(def.compression);
    if (codec == nullptr) continue;
    sample_rows += source.Sample(def.object, f).num_rows();
    const uint64_t allocs0 = alloc_count();
    const Clock::time_point t0 = Clock::now();
    estimator.Estimate(def, f);
    by_codec[codec].first += MsBetween(t0, Clock::now());
    allocs += alloc_count() - allocs0;
    ++by_codec[codec].second;
  }
  for (const char* codec : {"row", "page"}) {
    report->AddValue(std::string("estimator.samplecf_ms.") + codec,
                     by_codec[codec].first);
    report->AddCounter(std::string("estimator.samplecf_calls.") + codec,
                       by_codec[codec].second);
  }
  report->AddValue("estimator.allocs_per_sampled_row",
                   sample_rows > 0 ? static_cast<double>(allocs) /
                                         static_cast<double>(sample_rows)
                                   : 0.0);

  const WhatIfOptimizer& optimizer = s.engine->optimizer();
  report->AddValue("optimizer.select_cost_us",
                   CostUs(optimizer, s.workload, StatementType::kSelect,
                          ref.result.config));
  report->AddValue("optimizer.insert_cost_us",
                   CostUs(optimizer, s.workload, StatementType::kInsert,
                          ref.result.config));
}

// Per-layer metrics read from the set-ups, the reference response and the
// window's spans.
void AddLayerMetrics(const Stack& s, const std::vector<SetupTimes>& setups,
                     const Window& win, BenchReport* report) {
  std::vector<double> build_ms, stats_ms;
  for (const SetupTimes& t : setups) {
    build_ms.push_back(t.build_ms);
    stats_ms.push_back(t.table_stats_ms);
  }
  report->AddValue("workloads.build_ms", Median(build_ms));
  report->AddValue("stats.table_stats_ms", Median(stats_ms));
  report->AddCounter("stats.sample_rows_scanned",
                     setups.back().sample_rows_scanned);
  report->AddCounter("stats.samples_drawn", setups.back().samples_drawn);

  std::map<std::string, std::vector<double>> self_ms, duration_ms;
  for (const Span& span : win.spans) {
    self_ms[span.name].push_back(span.self_ms);
    duration_ms[span.name].push_back(span.end_ms - span.start_ms);
  }
  for (const char* phase :
       {"advisor.candidates", "estimator.estimation", "advisor.selection",
        "advisor.merging", "advisor.enumeration", "engine.report"}) {
    report->AddValue(std::string(phase) + "_ms", Median(self_ms[phase]));
  }

  const AdvisorResult& ref = s.refs[0].result;
  report->AddCounter("advisor.pool_size", ref.num_candidates);
  report->AddCounter("estimator.sampled", ref.num_sampled);
  report->AddCounter("estimator.deduced", ref.num_deduced);
  report->AddValue("estimator.cost_pages", ref.estimation_cost_pages);
  report->AddValue("estimator.chosen_f", ref.chosen_f);
  const double requests = static_cast<double>(win.attempted);
  const double lookups =
      static_cast<double>(win.cache_hits + win.cache_misses);
  report->AddValue("estimator.cache_hits",
                   static_cast<double>(win.cache_hits) / requests);
  report->AddValue("estimator.cache_misses",
                   static_cast<double>(win.cache_misses) / requests);
  report->AddValue("estimator.cache_hit_ratio",
                   lookups > 0 ? static_cast<double>(win.cache_hits) / lookups
                               : 0.0);

  report->AddCounter("optimizer.what_if_calls", ref.what_if_calls);
  report->AddCounter("optimizer.stmt_costs_computed", ref.stmt_costs_computed);
  report->AddCounter("optimizer.stmt_costs_cached", ref.stmt_costs_cached);
  const double costings =
      static_cast<double>(ref.stmt_costs_computed + ref.stmt_costs_cached);
  report->AddValue("optimizer.cost_cache_hit_ratio",
                   costings > 0 ? static_cast<double>(ref.stmt_costs_cached) /
                                      costings
                                : 0.0);
  report->AddValue("optimizer.us_per_computed_costing",
                   Median(win.us_per_costing));

  report->AddValue("service.request_ms_p50",
                   Percentile(duration_ms["service.request"], 0.5));
  report->AddValue("service.request_ms_p90",
                   Percentile(duration_ms["service.request"], 0.9));
  report->AddValue("service.queue_ms_p50",
                   Percentile(duration_ms["service.queue"], 0.5));
  report->AddValue("service.queue_ms_p90",
                   Percentile(duration_ms["service.queue"], 0.9));
  report->AddValue("service.run_ms_p50",
                   Percentile(duration_ms["service.run"], 0.5));
  report->AddValue("service.run_ms_p90",
                   Percentile(duration_ms["service.run"], 0.9));
  report->AddCounter("service.retries", win.retries);
  report->AddCounter("service.rejected", win.rejected);
  report->AddValue("service.generator_late_ms_max", win.late_ms_max);
}

}  // namespace

int HarnessMain(int argc, char** argv, AllocCounter alloc_count) {
  Flags flags;
  std::string error;
  if (!ParseFlags(argc, argv, &flags, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const WorkloadDef* w = nullptr;
  for (const WorkloadDef& def : kWorkloads) {
    if (flags.workload == def.name) w = &def;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", flags.workload.c_str());
    return 2;
  }
  const bool traced = alloc_count != nullptr;
  const int threads = w->estimation_threads;
  const std::vector<Pair> pairs = PairsFor(*w);

  std::unique_ptr<Stack> stack;
  std::vector<SetupTimes> setups(traced ? 1 : 5);
  for (SetupTimes& times : setups) {
    stack.reset();
    stack = SetUp(*w, pairs, flags.seed, threads, &times, &error);
    if (stack == nullptr) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return 1;
    }
  }

  Window win;
  RunClients(*w, pairs, stack.get(), threads, flags.seconds, traced, &win);

  BenchReport report(std::string("e2e.") + w->name);
  report.set_rows(w->rows);
  report.set_seed(flags.seed);
  report.set_threads(threads);
  std::vector<double> setup_ms;
  for (const SetupTimes& t : setups) setup_ms.push_back(t.setup_ms);
  double improvement = 0.0;
  for (const TuningResponse& ref : stack->refs) {
    improvement += ref.result.improvement_percent();
  }
  report.AddValue("setup_s", Median(setup_ms) / 1000.0);
  report.AddValue("tune_p50_ms", Percentile(win.latency_ms, 0.5));
  // Not gated in BENCHMARK.json: slow periods of the VM move it between
  // runs by more than any bound allows.
  report.AddValue("tune_p90_ms", Percentile(win.latency_ms, 0.9));
  report.AddValue("peak_rss_mb", PeakRssMb());
  report.AddValue("improvement_pct",
                  improvement / static_cast<double>(stack->refs.size()));
  report.AddCounter("check.attempted", win.attempted);
  report.AddCounter("check.failed", win.failed);
  for (size_t i = 0; i < pairs.size(); ++i) {
    report.AddCounter("check.json_fnv[" + pairs[i].Label() + "]",
                      Fnv1a(stack->refs[i].json));
  }

  if (traced) {
    AddLayerMetrics(*stack, setups, win, &report);
    RunProbes(*stack, alloc_count, &report);
    if (!flags.spans_path.empty() &&
        !WriteSpans(flags.spans_path, w->name, win.spans)) {
      std::fprintf(stderr, "cannot write %s\n", flags.spans_path.c_str());
      return 1;
    }
  }
  if (!report.WriteJsonFile(flags.json_path, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  return win.failed == 0 ? 0 : 1;
}

}  // namespace e2e
}  // namespace capd
