// Request-level benchmark harness for the compression-aware advisor.
//
//   perfbench_plain  --workload tpch-warm --seed 1 --seconds 20
//   perfbench_traced --workload tpch-warm --seed 1 --seconds 20 \
//                    --spans traces/tpch-warm.jsonl
//
// Drives the public request API (workloads::Build -> AdvisorEngine::Tune /
// TuningService::Submit) in a closed loop for --seconds and prints one JSON
// object of raw metric values as the last line of stdout. The traced build
// additionally records per-request spans from the phase callbacks, counts
// heap allocations, and replays single layers (what-if costing, codec page
// measurement, sample extraction) on the workload's own data. Layers are
// timed only from outside, through public functions and hooks.
//
// perfbench/run.py builds both binaries, attaches units and is the command
// to run; see perfbench/README.md for workloads and metrics.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "compress/codec_factory.h"
#include "engine/advisor_engine.h"
#include "service/tuning_service.h"
#include "stats/sampler.h"
#include "workloads/registry.h"

#ifdef PERFBENCH_TRACED
#include "common/alloc_tracker.h"
#endif

namespace capd {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

#ifdef PERFBENCH_TRACED
constexpr bool kTraced = true;
uint64_t Allocations() { return AllocCount(); }
#else
constexpr bool kTraced = false;
uint64_t Allocations() { return 0; }
#endif

// The engine's default sample seed; layer replays draw the same samples.
constexpr uint64_t kSampleSeed = EngineOptions().sample_seed;

// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Linear interpolation between closest ranks (q in [0, 1]).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Workload definitions.

// One distinct request of a workload's mix. Timed requests are checked
// against the reference response of their spec.
struct Spec {
  std::string key;
  size_t workload = 0;  // index into Inputs::workloads
  std::string strategy;
  double budget = 0.0;  // fraction of base data
};

struct WorkloadConfig {
  std::string name;
  std::string dataset;
  uint64_t rows = 0;
  int threads = 1;              // engine search and estimation threads
  bool fresh_engine = false;    // every request gets a new AdvisorEngine
  int service_workers = 0;      // 0 = call AdvisorEngine::Tune directly
  int clients = 1;              // closed-loop clients (outstanding requests)
  // The single client finishes the cycle of the request mix it is in, so
  // every distinct request is served equally often.
  bool whole_cycles = false;
};

bool FindConfig(const std::string& name, WorkloadConfig* out) {
  if (name == "tpch-warm") {
    *out = {name, "tpch", 30000, 1, false, 0, 1, true};
  } else if (name == "scale-cold") {
    *out = {name, "scale", 40000, 1, true, 0, 1, true};
  } else if (name == "service-mixed") {
    *out = {name, "sales", 50000, 2, false, 2, 4, false};
  } else {
    return false;
  }
  return true;
}

struct Inputs {
  workloads::BuiltWorkload built;
  std::vector<Workload> workloads;
  std::vector<Spec> specs;
  // Requests cycle through `cycle` slots; slot i serves specs[SpecOf(i)].
  size_t cycle = 1;
};

bool BuildInputs(const WorkloadConfig& config, uint64_t seed, Inputs* in,
                 std::string* error) {
  workloads::WorkloadSpec spec;
  spec.name = config.dataset;
  spec.rows = config.rows;
  spec.seed = seed + 1;  // 0 would select the dataset's default seed
  if (!workloads::Build(spec, &in->built, error)) return false;
  char key[96];
  if (config.name == "tpch-warm") {
    in->workloads = {in->built.workload};
    for (double budget : {0.0, 0.1, 0.2, 0.4}) {
      std::snprintf(key, sizeof(key), "dtac-both/b%.2f", budget);
      in->specs.push_back({key, 0, "dtac-both", budget});
    }
  } else if (config.name == "scale-cold") {
    in->workloads = {in->built.workload};
    in->specs.push_back({"dtac-both/b0.15", 0, "dtac-both", 0.15});
  } else {
    // SELECT-intensive (as generated) and INSERT-intensive (bulk loads
    // weighted 3x, the paper's Figure 15 variant).
    in->workloads = {in->built.workload,
                     in->built.workload.WithInsertWeight(3.0)};
    const char* strategies[] = {"dtac-both", "dtac-topk", "staged:page",
                                "dta"};
    for (size_t c = 0; c < 16; ++c) {
      const size_t w = (c / 4) % 2;
      const double budget = c < 8 ? 0.0 : 0.2;
      std::snprintf(key, sizeof(key), "%s/ins%d/b%.2f", strategies[c % 4],
                    w == 0 ? 1 : 3, budget);
      in->specs.push_back({key, w, strategies[c % 4], budget});
    }
  }
  in->cycle = config.name == "service-mixed" ? 64 : in->specs.size();
  return true;
}

size_t SpecOf(const Inputs& in, uint64_t slot) {
  return slot % in.cycle % in.specs.size();
}

// One request in four skips the shared estimation cache (service-mixed):
// each spec meets the flag once per 64-slot cycle.
bool SharedCacheFor(const WorkloadConfig& config, uint64_t slot) {
  if (config.name != "service-mixed") return true;
  const uint64_t c = slot % 64;
  return (c / 16) != (c % 16) % 4;
}

TuningRequest MakeRequest(const Inputs& in, const Spec& spec) {
  TuningRequest request;
  request.workload = in.workloads[spec.workload];
  request.strategy = spec.strategy;
  request.budget = TuningBudget::Fraction(spec.budget);
  return request;
}

EngineOptions EngineFor(const WorkloadConfig& config) {
  EngineOptions options;
  options.search_threads = config.threads;
  options.estimation_threads = config.threads;
  return options;
}

// ---------------------------------------------------------------------------
// Correctness check against the serial reference.

// The recommended design, bit-exact: objects with their estimated sizes,
// initial and final workload cost, charged bytes and improvement.
std::string DesignOf(const AdvisorResult& r) {
  std::string out;
  char buf[160];
  for (const PhysicalIndexEstimate& idx : r.config.indexes()) {
    std::snprintf(buf, sizeof(buf), " %a\n", idx.bytes);
    out += idx.def.Signature() + buf;
  }
  std::snprintf(buf, sizeof(buf), "%a %a %a %a", r.initial_cost,
                r.final_cost, r.charged_bytes, r.improvement_percent());
  return out + buf;
}

// The JSON report minus its statement-cost counter lines, which concurrent
// costing threads can inflate (a known counter race, not a design change).
std::string WithoutCostCounters(const std::string& json) {
  std::istringstream in(json);
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    if (line.find("\"stmt_costs_") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

struct Reference {
  std::string design;
  std::string json;
  Configuration config;
  uint64_t rows_scanned = 0;  // the cold request's sample extraction
};

enum class Verdict { kMatch, kCounterMismatch, kFailed };

Verdict Check(const TuningResponse& response, const Reference& ref) {
  if (!response.ok() || DesignOf(response.result) != ref.design) {
    return Verdict::kFailed;
  }
  if (response.json == ref.json) return Verdict::kMatch;
  return WithoutCostCounters(response.json) == WithoutCostCounters(ref.json)
             ? Verdict::kCounterMismatch
             : Verdict::kFailed;
}

// ---------------------------------------------------------------------------
// Spans.

// Phase-callback timestamps of one request, written by its tuning thread.
struct PhaseLog {
  std::vector<std::pair<std::string, Clock::time_point>> marks;
};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t request = 0;
  std::string name;
  std::string spec;  // request spans: the spec key of the request
  Clock::time_point start;
  Clock::time_point end;
};

// In-memory span store; written out once at the end of the run.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  // Records one request: the root span from the moment the client starts
  // building the request to the response, plus children for the prologue
  // (queue wait or engine construction), each advisor phase, and the
  // report rendering between the last phase and the end of the run. The
  // root's self time is the client's request building and any handoff.
  void AddRequest(uint64_t request, const std::string& spec,
                  Clock::time_point begin, Clock::time_point submit,
                  Clock::time_point done, const char* prologue,
                  Clock::time_point run_start, Clock::time_point run_end,
                  const PhaseLog& log) {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t root = Add(0, request, "request", begin, done);
    spans_.back().spec = spec;
    if (prologue != nullptr) Add(root, request, prologue, submit, run_start);
    Clock::time_point prev = run_start;
    for (const auto& [phase, at] : log.marks) {
      Add(root, request, "advisor." + phase, prev, at);
      prev = at;
    }
    Add(root, request, "engine.render", prev, std::max(prev, run_end));
    ++requests_;
  }

  // Mean per-request duration (ms) of spans named `name`.
  double MeanMs(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) total += Ms(s.start, s.end);
    }
    return Ratio(total, static_cast<double>(requests_));
  }

  // Mean self time of the request spans: duration minus child coverage
  // (children are sequential and never overlap).
  double MeanRequestSelfMs() const {
    Clock::duration self{0};
    for (const Span& s : spans_) {
      self += s.parent == 0 ? s.end - s.start : s.start - s.end;
    }
    return Ratio(std::chrono::duration<double, std::milli>(self).count(),
                 static_cast<double>(requests_));
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    for (const Span& s : spans_) {
      out << "{\"request\":" << s.request << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name;
      if (!s.spec.empty()) out << "\",\"spec\":\"" << s.spec;
      out << "\",\"start_us\":" << Us(s.start) << ",\"end_us\":" << Us(s.end)
          << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  uint64_t Add(uint64_t parent, uint64_t request, std::string name,
               Clock::time_point start, Clock::time_point end) {
    Span span;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.request = request;
    span.name = std::move(name);
    span.start = start;
    span.end = end;
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }
  long long Us(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
        .count();
  }

  const Clock::time_point epoch_;
  std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t requests_ = 0;
};

// ---------------------------------------------------------------------------
// Serving one request.

struct EstimationCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
  size_t bytes = 0;

  static EstimationCacheStats Of(const EstimationCache* cache) {
    EstimationCacheStats s;
    if (cache == nullptr) return s;
    s.hits = cache->hits();
    s.misses = cache->misses();
    s.evictions = cache->evictions();
    s.entries = cache->size();
    s.bytes = cache->charged_bytes();
    return s;
  }
};

struct Served {
  TuningResponse response;
  Clock::time_point submit;
  Clock::time_point run_start;
  Clock::time_point run_end;
  Clock::time_point done;
  const char* prologue = nullptr;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  // Fresh-engine requests only: that engine's cache and sampling work.
  EstimationCacheStats fresh_cache;
  uint64_t fresh_rows_scanned = 0;
};

// Runs `request` on a new engine, the way every capd_tune call starts.
Served ServeFresh(const Database& db, const EngineOptions& options,
                  const TuningRequest& request) {
  Served s;
  s.submit = Clock::now();
  {
    AdvisorEngine engine(db, options);
    s.prologue = "engine.construct";
    s.run_start = Clock::now();
    s.response = engine.Tune(request);
    s.run_end = Clock::now();
    s.fresh_cache = EstimationCacheStats::Of(engine.estimation_cache().get());
    s.fresh_rows_scanned = engine.samples()->rows_scanned();
  }
  s.done = Clock::now();
  return s;
}

Served ServeDirect(AdvisorEngine* engine, const TuningRequest& request) {
  Served s;
  s.submit = Clock::now();
  s.run_start = s.submit;
  s.response = engine->Tune(request);
  s.run_end = Clock::now();
  s.done = s.run_end;
  return s;
}

Served ServeService(TuningService* service, const TuningRequest& request) {
  ServiceRequest sreq;
  sreq.tuning = request;
  // A deadline no request comes near: the service path is exercised, but
  // no run is ever cut short.
  sreq.timeout_ms = 600000.0;
  Served s;
  s.submit = Clock::now();
  const std::shared_ptr<TuningService::Ticket> ticket = service->Submit(sreq);
  const ServiceResponse& r = ticket->Wait();
  s.done = Clock::now();
  s.response = r.ok() ? r.tuning : TuningResponse();
  s.prologue = "service.queue";
  s.queue_ms = r.queue_ms;
  s.run_ms = r.run_ms;
  // The service reports queue and run times; place them after submission.
  auto after = [&](double ms) {
    const auto offset = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(ms));
    return std::min(s.done, s.submit + offset);
  };
  s.run_start = after(r.queue_ms);
  s.run_end = after(r.queue_ms + r.run_ms);
  return s;
}

// ---------------------------------------------------------------------------
// The benchmark state of one workload.

struct Record {
  size_t spec = 0;
  double latency_ms = 0.0;
  Verdict verdict = Verdict::kFailed;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  size_t candidates = 0;
  size_t whatif_calls = 0;
  size_t costs_computed = 0;
  size_t costs_cached = 0;
  size_t sampled = 0;
  size_t deduced = 0;
  double cost_pages = 0.0;
  double chosen_f = 0.0;
  double improvement = 0.0;
  EstimationCacheStats fresh_cache;
  uint64_t fresh_rows_scanned = 0;
};

struct Setup {
  Inputs inputs;
  std::vector<Reference> refs;
  std::unique_ptr<AdvisorEngine> engine;  // long-lived engine, if any
  std::unique_ptr<TuningService> service;
};

class Bench {
 public:
  explicit Bench(WorkloadConfig config) : config_(std::move(config)) {}

  // Builds the inputs, computes each spec's serial reference on a fresh
  // engine at threads 1, and (warm workloads) builds the long-lived engine
  // and service and serves every spec once to fill the caches.
  bool RunSetup(uint64_t seed, Setup* s) {
    std::string error;
    if (!BuildInputs(config_, seed, &s->inputs, &error)) {
      Fail(error);
      return false;
    }
    const Inputs& in = s->inputs;
    for (const Spec& spec : in.specs) {
      const Served ref =
          ServeFresh(*in.built.db, EngineOptions(), MakeRequest(in, spec));
      if (!ref.response.ok()) {
        Fail("reference " + spec.key + " failed: " + ref.response.error);
        return false;
      }
      const AdvisorResult& r = ref.response.result;
      s->refs.push_back({DesignOf(r), ref.response.json, r.config,
                         ref.fresh_rows_scanned});
    }
    if (config_.fresh_engine) return true;
    s->engine = std::make_unique<AdvisorEngine>(*in.built.db,
                                                EngineFor(config_));
    if (config_.service_workers > 0) {
      ServiceOptions options;
      options.num_workers = config_.service_workers;
      s->service = std::make_unique<TuningService>(s->engine.get(), options);
    }
    for (size_t i = 0; i < in.specs.size(); ++i) {
      const Served w = Serve(*s, MakeRequest(in, in.specs[i]));
      if (Check(w.response, s->refs[i]) == Verdict::kFailed) {
        Fail("warm-up response of " + in.specs[i].key +
             " differs from its reference");
        return false;
      }
    }
    return true;
  }

  // Runs the setup kSetupReps times, keeps the last one and reports the
  // median time. A reference that a later setup does not reproduce
  // bit-exactly is an error.
  bool SetupRepeated(uint64_t seed) {
    std::vector<double> secs;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      auto fresh = std::make_unique<Setup>();
      setup_.reset();  // free the previous setup before timing the next
      const Clock::time_point t0 = Clock::now();
      if (!RunSetup(seed, fresh.get())) return false;
      secs.push_back(Ms(t0, Clock::now()) / 1000.0);
      if (!first_refs_.empty()) {
        for (size_t i = 0; i < first_refs_.size(); ++i) {
          if (fresh->refs[i].design + fresh->refs[i].json != first_refs_[i]) {
            Fail("reference " + fresh->inputs.specs[i].key +
                 " not reproduced by a repeated setup");
            return false;
          }
        }
      } else {
        for (const Reference& r : fresh->refs) {
          first_refs_.push_back(r.design + r.json);
        }
      }
      setup_ = std::move(fresh);
    }
    metrics_["setup_s"] = Median(secs);
    metrics_["setup.reps"] = kSetupReps;
    return true;
  }

  // The closed-loop timed phase.
  void RunTimed(double seconds, Tracer* tracer) {
    const Setup& s = *setup_;
    std::atomic<uint64_t> next_slot{0};
    std::mutex mu;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point last_done = t0;
    auto client = [&] {
      for (;;) {
        const uint64_t slot = next_slot.fetch_add(1);
        const double elapsed = Ms(t0, Clock::now()) / 1000.0;
        if (elapsed >= seconds &&
            (!config_.whole_cycles || slot % s.inputs.cycle == 0)) {
          return;
        }
        const Clock::time_point begin = Clock::now();
        const size_t spec = SpecOf(s.inputs, slot);
        TuningRequest request = MakeRequest(s.inputs, s.inputs.specs[spec]);
        request.use_shared_estimation_cache = SharedCacheFor(config_, slot);
        PhaseLog log;
        if (tracer != nullptr) {
          request.progress = [&log](const std::string& phase) {
            log.marks.emplace_back(phase, Clock::now());
          };
        }
        const Served served = Serve(s, request);
        const Record rec = ToRecord(spec, served, s.refs[spec]);
        std::lock_guard<std::mutex> lock(mu);
        if (tracer != nullptr) {
          tracer->AddRequest(slot + 1, s.inputs.specs[spec].key, begin,
                             served.submit, served.done,
                             served.prologue, served.run_start,
                             served.run_end, log);
        }
        records_.push_back(rec);
        last_done = std::max(last_done, served.done);
      }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < config_.clients; ++c) clients.emplace_back(client);
    for (std::thread& t : clients) t.join();
    timed_s_ = Ms(t0, last_done) / 1000.0;
  }

  // End-to-end metrics of the timed phase.
  void Summarize() {
    const Setup& s = *setup_;
    std::vector<double> latencies;
    std::map<size_t, double> improvement;  // by spec, from served responses
    size_t failed = 0;
    size_t mismatches = 0;
    for (const Record& r : records_) {
      latencies.push_back(r.latency_ms);
      if (r.verdict == Verdict::kFailed) {
        ++failed;
        continue;
      }
      if (r.verdict == Verdict::kCounterMismatch) ++mismatches;
      improvement[r.spec] = r.improvement;
    }
    // A response that passed its check has its reference's improvement,
    // bit for bit, so this mean equals the serial reference's exactly.
    double improvement_sum = 0.0;
    for (const auto& [spec, value] : improvement) improvement_sum += value;
    if (improvement.size() != s.inputs.specs.size()) {
      Fail("the timed phase did not serve every distinct request");
    }
    attempted_ = records_.size();
    failed_ = failed;
    metrics_["latency_ms.p50"] = Percentile(latencies, 0.5);
    metrics_["latency_ms.p90"] = Percentile(latencies, 0.9);
    metrics_["latency_ms.samples"] = static_cast<double>(latencies.size());
    metrics_["requests_per_s"] =
        Ratio(static_cast<double>(records_.size()), timed_s_);
    metrics_["failed_frac"] =
        Ratio(static_cast<double>(failed), static_cast<double>(attempted_));
    metrics_["improvement_pct"] =
        Ratio(improvement_sum, static_cast<double>(improvement.size()));
    metrics_["check.report_counter_mismatches"] =
        static_cast<double>(mismatches);
  }

  // Per-layer metrics from the traced timed phase plus layer replays.
  void SummarizeLayers(const Tracer& tracer, uint64_t allocs,
                       const EstimationCacheStats& cache_before,
                       const ServiceStats& service_before) {
    const Setup& s = *setup_;
    const double n = static_cast<double>(records_.size());
    for (const char* phase :
         {"candidates", "estimation", "selection", "merging", "enumeration"}) {
      metrics_[std::string("advisor.") + phase + "_ms"] =
          tracer.MeanMs(std::string("advisor.") + phase);
    }
    metrics_["engine.render_ms"] = tracer.MeanMs("engine.render");
    metrics_["trace.request_ms"] = tracer.MeanMs("request");
    metrics_["trace.request_self_ms"] = tracer.MeanRequestSelfMs();

    double candidates = 0, whatif = 0, computed = 0, cached = 0;
    double sampled = 0, deduced = 0, pages = 0, chosen_f = 0;
    EstimationCacheStats fresh;
    for (const Record& r : records_) {
      candidates += r.candidates;
      whatif += r.whatif_calls;
      computed += r.costs_computed;
      cached += r.costs_cached;
      sampled += r.sampled;
      deduced += r.deduced;
      pages += r.cost_pages;
      chosen_f += r.chosen_f;
      fresh.hits += r.fresh_cache.hits;
      fresh.misses += r.fresh_cache.misses;
      fresh.evictions += r.fresh_cache.evictions;
      fresh.entries += r.fresh_cache.entries;
      fresh.bytes += r.fresh_cache.bytes;
    }
    metrics_["advisor.candidates"] = Ratio(candidates, n);
    metrics_["advisor.whatif_calls"] = Ratio(whatif, n);
    metrics_["optimizer.costs_computed"] = Ratio(computed, n);
    metrics_["optimizer.costs_cached"] = Ratio(cached, n);
    metrics_["optimizer.cache_hit_ratio"] = Ratio(cached, computed + cached);
    metrics_["estimator.sampled"] = Ratio(sampled, n);
    metrics_["estimator.deduced"] = Ratio(deduced, n);
    metrics_["estimator.cost_pages"] = Ratio(pages, n);
    metrics_["estimator.chosen_f"] = Ratio(chosen_f, n);

    // Estimation cache over the timed phase, per request: the long-lived
    // engine's deltas, or the fresh engines' counts (entries and bytes are
    // the long-lived engine's final size, or the fresh engines' mean).
    EstimationCacheStats cache;
    if (s.engine != nullptr) {
      const EstimationCacheStats now =
          EstimationCacheStats::Of(s.engine->estimation_cache().get());
      cache = now;
      cache.hits -= cache_before.hits;
      cache.misses -= cache_before.misses;
      cache.evictions -= cache_before.evictions;
    } else {
      cache = fresh;
      cache.entries = static_cast<size_t>(Ratio(fresh.entries, n));
      cache.bytes = static_cast<size_t>(Ratio(fresh.bytes, n));
    }
    metrics_["estimator.cache_hits"] = Ratio(cache.hits, n);
    metrics_["estimator.cache_misses"] = Ratio(cache.misses, n);
    metrics_["estimator.cache_hit_ratio"] =
        Ratio(cache.hits, static_cast<double>(cache.hits + cache.misses));
    metrics_["estimator.cache_entries"] = static_cast<double>(cache.entries);
    metrics_["estimator.cache_bytes"] = static_cast<double>(cache.bytes);
    metrics_["estimator.cache_evictions"] = Ratio(cache.evictions, n);

    metrics_["alloc.per_request"] = Ratio(static_cast<double>(allocs), n);

    if (s.service != nullptr) {
      std::vector<double> queue, run;
      for (const Record& r : records_) {
        queue.push_back(r.queue_ms);
        run.push_back(r.run_ms);
      }
      const ServiceStats now = s.service->stats();
      metrics_["service.queue_ms.p50"] = Median(queue);
      metrics_["service.run_ms.p50"] = Median(run);
      metrics_["service.retries"] =
          static_cast<double>(now.retries - service_before.retries);
      metrics_["service.rejected"] =
          static_cast<double>(now.rejected - service_before.rejected);
      metrics_["service.degraded"] =
          static_cast<double>(now.degraded - service_before.degraded);
    } else {
      ReplayService();
    }
    ReplayOptimizer();
    ReplayCodecs();
    ReplaySampling();
  }

  EstimationCacheStats CacheStats() const {
    return setup_->engine != nullptr
               ? EstimationCacheStats::Of(
                     setup_->engine->estimation_cache().get())
               : EstimationCacheStats();
  }
  ServiceStats ServiceCounters() const {
    return setup_->service != nullptr ? setup_->service->stats()
                                      : ServiceStats();
  }

  void Fail(const std::string& why) { errors_.push_back(why); }
  const std::vector<std::string>& errors() const { return errors_; }
  std::map<std::string, double>& metrics() { return metrics_; }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

 private:
  Served Serve(const Setup& s, const TuningRequest& request) const {
    if (s.service != nullptr) return ServeService(s.service.get(), request);
    if (s.engine != nullptr) return ServeDirect(s.engine.get(), request);
    return ServeFresh(*s.inputs.built.db, EngineFor(config_), request);
  }

  static Record ToRecord(size_t spec, const Served& served,
                         const Reference& ref) {
    Record r;
    r.spec = spec;
    r.latency_ms = Ms(served.submit, served.done);
    r.verdict = Check(served.response, ref);
    r.queue_ms = served.queue_ms;
    r.run_ms = served.run_ms;
    const AdvisorResult& a = served.response.result;
    r.candidates = a.num_candidates;
    r.whatif_calls = a.what_if_calls;
    r.costs_computed = a.stmt_costs_computed;
    r.costs_cached = a.stmt_costs_cached;
    r.sampled = a.num_sampled;
    r.deduced = a.num_deduced;
    r.cost_pages = a.estimation_cost_pages;
    r.chosen_f = a.chosen_f;
    r.improvement = a.improvement_percent();
    r.fresh_cache = served.fresh_cache;
    r.fresh_rows_scanned = served.fresh_rows_scanned;
    return r;
  }

  // Workloads without a service: serve the distinct requests through a
  // one-worker TuningService (over the long-lived engine, or over a fresh
  // engine per request) to time the service layer on this workload.
  void ReplayService() {
    const Setup& s = *setup_;
    const size_t n = std::max<size_t>(4, s.inputs.specs.size());
    ServiceOptions options;
    options.num_workers = 1;
    std::vector<double> queue, run;
    uint64_t retries = 0, rejected = 0, degraded = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t spec = i % s.inputs.specs.size();
      std::unique_ptr<AdvisorEngine> fresh;
      AdvisorEngine* engine = s.engine.get();
      if (engine == nullptr) {
        fresh = std::make_unique<AdvisorEngine>(*s.inputs.built.db,
                                                EngineFor(config_));
        engine = fresh.get();
      }
      TuningService service(engine, options);
      const Served served =
          ServeService(&service, MakeRequest(s.inputs, s.inputs.specs[spec]));
      if (Check(served.response, s.refs[spec]) == Verdict::kFailed) {
        Fail("service replay of " + s.inputs.specs[spec].key +
             " differs from its reference");
      }
      queue.push_back(served.queue_ms);
      run.push_back(served.run_ms);
      const ServiceStats stats = service.stats();
      retries += stats.retries;
      rejected += stats.rejected;
      degraded += stats.degraded;
    }
    metrics_["service.queue_ms.p50"] = Median(queue);
    metrics_["service.run_ms.p50"] = Median(run);
    metrics_["service.retries"] = static_cast<double>(retries);
    metrics_["service.rejected"] = static_cast<double>(rejected);
    metrics_["service.degraded"] = static_cast<double>(degraded);
  }

  // Mean time of WhatIfOptimizer::Cost over every spec's statements under
  // the empty and the reference's final configuration.
  void ReplayOptimizer() {
    const Setup& s = *setup_;
    AdvisorEngine scratch(*s.inputs.built.db, EngineFor(config_));
    const WhatIfOptimizer& optimizer =
        s.engine != nullptr ? s.engine->optimizer() : scratch.optimizer();
    const Configuration empty;
    std::vector<std::pair<const Statement*, const Configuration*>> calls;
    for (size_t i = 0; i < s.inputs.specs.size(); ++i) {
      const Workload& w = s.inputs.workloads[s.inputs.specs[i].workload];
      for (const Statement& stmt : w.statements) {
        calls.emplace_back(&stmt, &empty);
        calls.emplace_back(&stmt, &s.refs[i].config);
      }
    }
    double sink = 0.0;
    size_t count = 0;
    const Clock::time_point t0 = Clock::now();
    do {
      for (const auto& [stmt, config] : calls) {
        sink += optimizer.Cost(*stmt, *config);
      }
      count += calls.size();
    } while (Ms(t0, Clock::now()) < 200.0);
    metrics_["optimizer.cost_us"] =
        Ms(t0, Clock::now()) * 1000.0 / static_cast<double>(count);
    if (!(sink >= 0.0)) Fail("optimizer replay produced a negative cost");
  }

  // Time of Codec::MeasurePage per kind over FlatPages cut from the
  // largest table's sample at the largest candidate fraction.
  void ReplayCodecs() {
    const Setup& s = *setup_;
    const Table* largest = nullptr;
    for (const Table* t : s.inputs.built.db->tables()) {
      if (largest == nullptr || t->num_rows() > largest->num_rows()) {
        largest = t;
      }
    }
    SampleManager samples(kSampleSeed);
    const double f = SizeEstimationOptions().fractions.back();
    const Table& sample = samples.GetSample(*largest, f);
    const std::vector<Row>& rows = sample.rows();
    const Schema& schema = sample.schema();
    size_t row_width = 0;
    for (uint32_t w : ColumnWidths(schema)) row_width += w;
    const size_t per_page = std::max<size_t>(1, kPageSize / (row_width + 1));
    std::vector<FlatPage> pages;
    for (size_t b = 0; b < rows.size(); b += per_page) {
      pages.push_back(FlatPage::FromRows(rows, schema, b,
                                         std::min(rows.size(), b + per_page)));
    }
    const std::pair<CompressionKind, const char*> kinds[] = {
        {CompressionKind::kNone, "none"},
        {CompressionKind::kRow, "row"},
        {CompressionKind::kPage, "page"},
        {CompressionKind::kGlobalDict, "global_dict"},
        {CompressionKind::kRle, "rle"},
        {CompressionKind::kBitmap, "bitmap"},
    };
    uint64_t sink = 0;
    for (const auto& [kind, name] : kinds) {
      const std::unique_ptr<Codec> codec = MakeCodec(kind, schema, rows);
      size_t measured = 0;
      const Clock::time_point t0 = Clock::now();
      do {
        for (const FlatPage& page : pages) sink += codec->MeasurePage(page);
        measured += rows.size();
      } while (Ms(t0, Clock::now()) < 50.0);
      metrics_[std::string("compress.measure_ns_per_row.") + name] =
          Ms(t0, Clock::now()) * 1e6 / static_cast<double>(measured);
    }
    if (sink == 0) Fail("codec replay measured no bytes");
  }

  // Time of SampleManager::GetSample on a fresh manager for every base
  // table the workload reads x candidate fraction. Its scan count must
  // equal what the cold reference request scanned, so the replay is the
  // request's work.
  void ReplaySampling() {
    const Setup& s = *setup_;
    std::set<std::string> tables;
    for (const Workload& w : s.inputs.workloads) {
      for (const Statement& stmt : w.statements) {
        if (stmt.type == StatementType::kInsert) {
          tables.insert(stmt.insert.table);
          continue;
        }
        tables.insert(stmt.select.table);
        for (const JoinClause& join : stmt.select.joins) {
          tables.insert(join.dim_table);
        }
      }
    }
    std::vector<double> ms;
    uint64_t rows_scanned = 0;
    size_t num_samples = 0;
    for (int pass = 0; pass < 3; ++pass) {
      SampleManager samples(kSampleSeed);
      const Clock::time_point t0 = Clock::now();
      for (const std::string& table : tables) {
        for (double f : SizeEstimationOptions().fractions) {
          samples.GetSample(s.inputs.built.db->table(table), f);
        }
      }
      ms.push_back(Ms(t0, Clock::now()));
      rows_scanned = samples.rows_scanned();
      num_samples = samples.num_samples();
    }
    metrics_["stats.sample_ms"] = Median(ms);
    metrics_["stats.rows_scanned"] = static_cast<double>(rows_scanned);
    metrics_["stats.samples"] = static_cast<double>(num_samples);
    const uint64_t request_scanned = setup_->refs.front().rows_scanned;
    if (rows_scanned != request_scanned) {
      Fail("sampling replay scanned " + std::to_string(rows_scanned) +
           " rows, the cold request " + std::to_string(request_scanned));
    }
  }

  const WorkloadConfig config_;
  std::unique_ptr<Setup> setup_;
  std::vector<std::string> first_refs_;
  std::vector<Record> records_;
  double timed_s_ = 0.0;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::map<std::string, double> metrics_;
  std::vector<std::string> errors_;
};

// VmHWM of this process in MB, or 0 if unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload tpch-warm|scale-cold|service-mixed "
               "--seed N --seconds S [--spans PATH]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  WorkloadConfig config;
  if (!FindConfig(workload, &config) || !(seconds > 0.0)) {
    return Usage(argv[0]);
  }

  const Clock::time_point epoch = Clock::now();
  Bench bench(config);
  if (bench.SetupRepeated(seed)) {
    if (kTraced) {
      Tracer tracer(epoch);
      const EstimationCacheStats cache_before = bench.CacheStats();
      const ServiceStats service_before = bench.ServiceCounters();
      const uint64_t allocs_before = Allocations();
      bench.RunTimed(seconds, &tracer);
      const uint64_t allocs = Allocations() - allocs_before;
      bench.Summarize();
      bench.SummarizeLayers(tracer, allocs, cache_before, service_before);
      if (!spans_path.empty() && !tracer.Write(spans_path)) {
        bench.Fail("cannot write spans to " + spans_path);
      }
    } else {
      bench.RunTimed(seconds, nullptr);
      bench.Summarize();
    }
  }
  bench.metrics()["peak_rss_mb"] = PeakRssMb();

  std::printf("{\"workload\": \"%s\", \"traced\": %s, \"correct\": %s, "
              "\"attempted\": %zu, \"failed\": %zu, \"errors\": [",
              config.name.c_str(), kTraced ? "true" : "false",
              bench.errors().empty() ? "true" : "false", bench.attempted(),
              bench.failed());
  for (size_t i = 0; i < bench.errors().size(); ++i) {
    std::printf("%s\"%s\"", i > 0 ? ", " : "",
                JsonEscape(bench.errors()[i]).c_str());
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : bench.metrics()) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  return bench.errors().empty() && bench.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace capd

int main(int argc, char** argv) { return capd::perfbench::Main(argc, argv); }
