#include "advisor/advisor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "common/logging.h"

namespace capd {
namespace {

// One index's budget charge: clustered indexes replace the heap, so they
// are charged (size - heap size). Both ChargedBytes overloads add through
// here, so they sum the same double operations in the same order.
void AddCharge(const Database& db, const PhysicalIndexEstimate& idx,
               double* charged) {
  *charged += idx.bytes;
  if (idx.def.clustered && db.HasTable(idx.def.object)) {
    *charged -= static_cast<double>(db.table(idx.def.object).HeapBytes());
  }
}

// True if candidate `id` may join `members`. No member may share its
// structure — that also rules out the index itself, and the same structure
// with another compression is a competing index: physically legal but
// never useful beside its sibling for our optimizer, and it bloats
// enumeration. At most one clustered index per object.
bool CanJoin(const CandidatePool& pool, const std::vector<uint32_t>& members,
             uint32_t id) {
  const CandidatePool::Entry& cand = pool[id];
  for (const uint32_t m : members) {
    const CandidatePool::Entry& member = pool[m];
    if (member.structure == cand.structure) return false;
    if (cand.est.def.clustered && member.est.def.clustered &&
        member.est.def.object == cand.est.def.object) {
      return false;
    }
  }
  return true;
}

// Appends `id`; a configuration never holds one index twice.
void AddMember(const CandidatePool& pool, uint32_t id,
               std::vector<uint32_t>* members) {
  CAPD_CHECK(std::find(members->begin(), members->end(), id) ==
             members->end())
      << "duplicate index in configuration: " << pool[id].est.def.ToString();
  members->push_back(id);
}

}  // namespace

double Advisor::ChargedBytes(const Configuration& config) const {
  double charged = 0.0;
  for (const PhysicalIndexEstimate& idx : config.indexes()) {
    AddCharge(*db_, idx, &charged);
  }
  return charged;
}

double Advisor::ChargedBytes(const CandidatePool& pool,
                             const std::vector<uint32_t>& members) const {
  double charged = 0.0;
  for (const uint32_t id : members) AddCharge(*db_, pool[id].est, &charged);
  return charged;
}

bool Advisor::CancelRequested() const {
  return options_.cancel != nullptr &&
         options_.cancel->load(std::memory_order_relaxed);
}

void Advisor::ReportProgress(const char* phase) const {
  // Fault hooks run first so an injected fault (thrown TransientTuningError
  // or a flipped cancel flag) lands before observers hear about the phase.
  if (options_.fault_hook) options_.fault_hook(phase);
  if (options_.progress) options_.progress(phase);
}

double Advisor::WorkloadCost(const Workload& workload,
                             const CandidatePool& pool,
                             const std::vector<uint32_t>& members,
                             StatementCostCache* cost_cache,
                             AdvisorResult* result) const {
  if (result != nullptr) {
    result->what_if_calls += workload.statements.size();
    // Cached costings are tallied from the cache's own counters at the end
    // of Tune; only uncached costing is known to run the optimizer here.
    if (cost_cache == nullptr) {
      result->stmt_costs_computed += workload.statements.size();
    }
  }
  if (cost_cache != nullptr) return cost_cache->WorkloadCost(pool, members);
  return optimizer_->WorkloadCost(workload, pool.Materialize(members));
}

double Advisor::PooledWorkloadCost(const Workload& workload,
                                   const Configuration& config,
                                   AdvisorResult* result) const {
  if (result != nullptr) {
    result->what_if_calls += workload.statements.size();
    result->stmt_costs_computed += workload.statements.size();
  }
  const std::vector<double> costs = ParallelMap<double>(
      options_.pool, workload.statements.size(), [&](size_t i) {
        // Remaining costings are skipped once a cancel fires; the partial
        // sum is meaningless, so callers must re-check CancelRequested()
        // before consuming the total.
        if (CancelRequested()) return 0.0;
        return optimizer_->Cost(workload.statements[i], config);
      });
  // Same weighted terms summed in the same statement order as
  // WhatIfOptimizer::WorkloadCost — bit-identical at any thread count.
  double total = 0.0;
  for (size_t i = 0; i < workload.statements.size(); ++i) {
    total += workload.statements[i].weight * costs[i];
  }
  return total;
}

std::map<std::string, PhysicalIndexEstimate> Advisor::EstimateSizes(
    const std::vector<IndexDef>& candidates, AdvisorResult* result) {
  std::map<std::string, PhysicalIndexEstimate> sizes;
  std::vector<IndexDef> uncompressed;
  std::vector<IndexDef> compressed;
  for (const IndexDef& def : candidates) {
    (def.compression == CompressionKind::kNone ? uncompressed : compressed)
        .push_back(def);
  }
  const std::vector<SampleCfResult> plain =
      sizes_->UncompressedSizeAll(uncompressed);
  for (size_t i = 0; i < uncompressed.size(); ++i) {
    PhysicalIndexEstimate est;
    est.def = uncompressed[i];
    est.bytes = plain[i].est_bytes;
    est.tuples = plain[i].est_tuples;
    sizes[uncompressed[i].Signature()] = est;
  }
  const SizeEstimator::BatchResult batch = sizes_->EstimateAll(compressed);
  for (const IndexDef& def : compressed) {
    const auto it = batch.estimates.find(def.Signature());
    if (it == batch.estimates.end()) {
      // A batch may only come back short when a cooperative cancel stopped
      // it mid-estimation; every caller discards the partial map once the
      // flag is up, so skipping the hole is safe. Anything else is a bug.
      CAPD_CHECK(CancelRequested()) << def.ToString();
      continue;
    }
    PhysicalIndexEstimate est;
    est.def = def;
    est.bytes = it->second.est_bytes;
    est.tuples = it->second.est_tuples;
    sizes[def.Signature()] = est;
  }
  if (result != nullptr) {
    result->estimation_cost_pages += batch.total_cost_pages;
    // An empty (or cancelled) batch never picks a fraction (chosen_f == 0);
    // keep the last real one rather than clobbering the report.
    if (batch.chosen_f > 0.0) result->chosen_f = batch.chosen_f;
    result->num_sampled += batch.num_sampled;
    result->num_deduced += batch.num_deduced;
  }
  return sizes;
}

std::vector<uint32_t> Advisor::SelectCandidates(
    const Workload& workload, const CandidatePool& pool,
    const std::vector<uint32_t>& candidates, StatementCostCache* cost_cache,
    AdvisorResult* result) const {
  std::vector<uint32_t> selected;
  std::vector<char> kept(pool.size());

  // Every costing the loop below needs is independent: per SELECT query,
  // its base (empty-configuration) cost plus one single-index cost per
  // candidate. Fan them all across the pool — concurrent misses warm the
  // shared StatementCostCache for the first enumeration step — then reduce
  // serially in (query, candidate) order so the selected pool matches the
  // serial loop to the bit at any thread count.
  std::vector<size_t> selects;
  selects.reserve(workload.statements.size());
  for (size_t si = 0; si < workload.statements.size(); ++si) {
    if (workload.statements[si].type == StatementType::kSelect) {
      selects.push_back(si);
    }
  }
  const size_t stride = 1 + candidates.size();  // base cost + one per index

  auto stmt_cost = [&](size_t stmt_index,
                       const std::vector<uint32_t>& members) {
    return cost_cache != nullptr
               ? cost_cache->Cost(stmt_index, pool, members)
               : optimizer_->Cost(workload.statements[stmt_index],
                                  pool.Materialize(members));
  };
  const std::vector<double> costs = ParallelMap<double>(
      options_.pool, selects.size() * stride, [&](size_t j) {
        // Skipped costings yield 0.0, which makes every candidate look
        // irrelevant (cost >= base_cost) — harmless, because Tune discards
        // the selection as soon as it sees the cancel flag. The cost cache
        // is never fed skipped values.
        if (CancelRequested()) return 0.0;
        const size_t si = selects[j / stride];
        const size_t c = j % stride;
        if (c == 0) return stmt_cost(si, {});
        return stmt_cost(si, {candidates[c - 1]});
      });
  if (result != nullptr) {
    result->what_if_calls += selects.size() * candidates.size();
    if (cost_cache == nullptr) {
      result->stmt_costs_computed += selects.size() * stride;
    }
  }

  auto keep = [&](uint32_t id) {
    if (kept[id]) return;
    kept[id] = 1;
    selected.push_back(id);
  };
  for (size_t q = 0; q < selects.size(); ++q) {
    // Serial reduction over this query's precomputed costs.
    struct Entry {
      uint32_t id;
      double cost;
      double bytes;
    };
    std::vector<Entry> entries;
    const double base_cost = costs[q * stride];
    for (size_t c = 0; c < candidates.size(); ++c) {
      const double cost = costs[q * stride + 1 + c];
      if (cost >= base_cost) continue;  // irrelevant to this query
      // Size dimension of the skyline is the *budget charge*: a clustered
      // index replaces the heap, so its effective footprint can be tiny (or
      // negative when compressed) even though the structure is large.
      entries.push_back(
          Entry{candidates[c], cost, ChargedBytes(pool, {candidates[c]})});
    }

    if (options_.selection == CandidateSelectionMode::kTopK) {
      std::sort(entries.begin(), entries.end(),
                [](const Entry& a, const Entry& b) { return a.cost < b.cost; });
      const size_t k = std::min<size_t>(options_.top_k, entries.size());
      for (size_t i = 0; i < k; ++i) keep(entries[i].id);
    } else {
      // Skyline of (bytes, cost): keep entries no other entry dominates
      // (smaller AND faster). O(n^2), negligible next to what-if calls.
      for (const Entry& e : entries) {
        bool dominated = false;
        for (const Entry& o : entries) {
          if (o.id == e.id) continue;
          const bool better_or_equal = o.cost <= e.cost && o.bytes <= e.bytes;
          const bool strictly_better = o.cost < e.cost || o.bytes < e.bytes;
          if (better_or_equal && strictly_better) {
            dominated = true;
            break;
          }
        }
        if (!dominated) keep(e.id);
      }
    }
  }
  return selected;
}

std::vector<uint32_t> Advisor::Enumerate(
    const Workload& workload, const CandidatePool& pool,
    const std::vector<uint32_t>& candidates, double budget_bytes,
    StatementCostCache* cost_cache, AdvisorResult* result) const {
  std::vector<uint32_t> config;  // member ids, in configuration order
  double current_cost = WorkloadCost(workload, pool, config, cost_cache, result);

  // Trial costing, callable from pool workers (the cache and the optimizer
  // are both thread-safe). what_if accounting happens serially after each
  // fan-out so AdvisorResult is never touched concurrently.
  auto trial_cost = [&](const std::vector<uint32_t>& members) {
    return WorkloadCost(workload, pool, members, cost_cache, nullptr);
  };
  auto charge_calls = [&](size_t trials) {
    if (result == nullptr) return;
    result->what_if_calls += trials * workload.statements.size();
    if (cost_cache == nullptr) {
      result->stmt_costs_computed += trials * workload.statements.size();
    }
  };
  auto with = [&pool](std::vector<uint32_t> members, uint32_t id) {
    AddMember(pool, id, &members);
    return members;
  };
  auto bytes_of = [&pool](uint32_t id) { return pool[id].est.bytes; };
  ThreadPool* workers = options_.pool;

  while (true) {
    // Cooperative cancel: between greedy steps the configuration is always
    // coherent, so stopping here leaves the best design found so far.
    if (CancelRequested()) {
      if (result != nullptr) result->cancelled = true;
      break;
    }
    // Evaluate every addable candidate. The trials are independent, so
    // they fan out across the pool; the reduction below walks them in pool
    // order with the same comparisons as the serial loop, which makes the
    // parallel result bit-identical at any thread count.
    std::vector<uint32_t> addable;
    addable.reserve(candidates.size());
    for (const uint32_t id : candidates) {
      if (CanJoin(pool, config, id)) addable.push_back(id);
    }
    const std::vector<double> trial_costs =
        ParallelMap<double>(workers, addable.size(), [&](size_t k) {
          // Infinity reads as "no benefit", so skipped trials can never be
          // picked; the next loop iteration then observes the flag and
          // breaks with the coherent best-so-far configuration.
          if (CancelRequested()) {
            return std::numeric_limits<double>::infinity();
          }
          return trial_cost(with(config, addable[k]));
        });
    charge_calls(addable.size());

    int best_fit = -1;       // best candidate that fits the budget
    double best_fit_score = 0.0;
    double best_fit_cost = current_cost;
    int best_any = -1;       // best candidate ignoring the budget
    double best_any_benefit = 0.0;

    for (size_t k = 0; k < addable.size(); ++k) {
      const uint32_t id = addable[k];
      const double cost = trial_costs[k];
      const double benefit = current_cost - cost;
      if (benefit <= 1e-9) continue;
      const bool fits = ChargedBytes(pool, with(config, id)) <= budget_bytes;
      const double score =
          options_.enumeration == EnumerationMode::kDensityGreedy
              ? benefit / std::max(1.0, bytes_of(id))
              : benefit;
      if (fits && score > best_fit_score) {
        best_fit_score = score;
        best_fit = static_cast<int>(id);
        best_fit_cost = cost;
      }
      if (benefit > best_any_benefit) {
        best_any_benefit = benefit;
        best_any = static_cast<int>(id);
      }
    }

    if (options_.trace) {
      std::fprintf(
          stderr, "[enum] step: best_fit=%s best_any=%s\n",
          best_fit >= 0 ? pool[best_fit].est.def.ToString().c_str() : "-",
          best_any >= 0 ? pool[best_any].est.def.ToString().c_str() : "-");
    }

    // Backtracking (Section 6.2): if the overall-best choice is oversized,
    // try to recover it by swapping one or more members for compressed
    // variants. Swaps are applied greedily until the configuration fits:
    // prefer a swap that fits immediately with the best workload cost,
    // otherwise the one freeing the most space (to converge).
    if (options_.backtracking && best_any >= 0 && best_any != best_fit) {
      const std::vector<uint32_t> oversized = with(config, best_any);
      if (ChargedBytes(pool, oversized) > budget_bytes) {
        std::vector<uint32_t> best_recovered;
        double best_recovered_cost = std::numeric_limits<double>::infinity();
        std::vector<uint32_t> work = oversized;
        for (int round = 0; round < 8; ++round) {
          // Viable swaps are gathered serially (cheap size/structure
          // checks), the in-budget ones are what-if costed across the
          // pool, and the winner is reduced in (member, replacement) scan
          // order — the exact tie-breaking of the serial loop. A swap
          // removes the member and appends its replacement.
          std::vector<std::vector<uint32_t>> fit_swaps;
          int reduce_member = -1;
          uint32_t reduce_repl = 0;
          double reduce_amount = 0.0;
          for (int m = 0; m < static_cast<int>(work.size()); ++m) {
            const CandidatePool::Entry& member = pool[work[m]];
            for (const uint32_t repl : candidates) {
              if (pool[repl].structure != member.structure) continue;
              if (repl == work[m]) continue;
              if (bytes_of(repl) >= member.est.bytes) continue;
              std::vector<uint32_t> trial = work;
              trial.erase(trial.begin() + m);
              AddMember(pool, repl, &trial);
              if (ChargedBytes(pool, trial) <= budget_bytes) {
                fit_swaps.push_back(std::move(trial));
              } else if (member.est.bytes - bytes_of(repl) > reduce_amount) {
                reduce_amount = member.est.bytes - bytes_of(repl);
                reduce_member = m;
                reduce_repl = repl;
              }
            }
          }
          const std::vector<double> swap_costs =
              ParallelMap<double>(workers, fit_swaps.size(), [&](size_t k) {
                // Infinite swap costs can never beat best_fit/current, so a
                // cancel mid-backtrack leaves the configuration untouched.
                if (CancelRequested()) {
                  return std::numeric_limits<double>::infinity();
                }
                return trial_cost(fit_swaps[k]);
              });
          charge_calls(fit_swaps.size());
          int fit_swap = -1;
          double fit_swap_cost = std::numeric_limits<double>::infinity();
          for (size_t k = 0; k < fit_swaps.size(); ++k) {
            if (swap_costs[k] < fit_swap_cost) {
              fit_swap_cost = swap_costs[k];
              fit_swap = static_cast<int>(k);
            }
          }
          if (fit_swap >= 0) {
            if (fit_swap_cost < best_recovered_cost) {
              best_recovered_cost = fit_swap_cost;
              best_recovered = std::move(fit_swaps[fit_swap]);
            }
            break;
          }
          if (reduce_member < 0) break;  // no further swaps possible
          work.erase(work.begin() + reduce_member);
          AddMember(pool, reduce_repl, &work);
        }
        if (options_.trace) {
          std::fprintf(stderr, "[enum] backtrack: recovered=%s cost=%.1f vs fit=%.1f cur=%.1f\n",
                       !best_recovered.empty()
                           ? pool.Materialize(best_recovered).ToString().c_str()
                           : "-",
                       best_recovered_cost, best_fit_cost, current_cost);
        }
        if (!best_recovered.empty() &&
            best_recovered_cost < std::min(best_fit_cost, current_cost)) {
          config = std::move(best_recovered);
          current_cost = best_recovered_cost;
          continue;
        }
      }
    }

    if (best_fit < 0) break;
    AddMember(pool, best_fit, &config);
    current_cost = best_fit_cost;
  }
  return config;
}

AdvisorResult Advisor::Tune(const Workload& workload, double budget_bytes) {
  AdvisorResult result;
  CandidateGenerator generator(*db_, *optimizer_, mvs_, options_);
  using Clock = std::chrono::steady_clock;
  auto millis_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };

  // Cancellation can land between any two phases; the partial result (best
  // configuration so far, flagged `cancelled`) is always coherent.
  auto cancelled = [&]() {
    if (!CancelRequested()) return false;
    result.cancelled = true;
    return true;
  };

  // 1. Syntactically relevant candidates + compressed variants.
  auto t0 = Clock::now();
  std::vector<IndexDef> candidates = generator.GenerateForWorkload(workload);
  ReportProgress("candidates");
  if (cancelled()) return result;

  // 2. Size estimation for every candidate (Section 5 framework).
  std::map<std::string, PhysicalIndexEstimate> sizes =
      EstimateSizes(candidates, &result);
  result.estimation_ms += millis_since(t0);
  ReportProgress("estimation");
  if (cancelled()) return result;

  // The per-statement what-if cost cache lives for the whole run: nothing
  // within one Tune invalidates a statement cost (database and sizes are
  // fixed), and the single-index costings of candidate selection double as
  // warm-up for the first enumeration step.
  std::unique_ptr<StatementCostCache> cost_cache;
  if (options_.cost_cache) {
    cost_cache =
        std::make_unique<StatementCostCache>(*db_, *optimizer_, workload);
  }

  // 3. Per-query candidate selection (top-k or skyline), over the
  // candidates interned once: from here on the search speaks pool ids.
  t0 = Clock::now();
  CandidatePool pool(cost_cache.get());
  std::vector<uint32_t> ids;
  ids.reserve(candidates.size());
  for (const IndexDef& def : candidates) {
    ids.push_back(pool.Add(sizes.at(def.Signature())));
  }
  std::vector<uint32_t> selected =
      SelectCandidates(workload, pool, ids, cost_cache.get(), &result);
  result.selection_ms += millis_since(t0);
  ReportProgress("selection");
  if (cancelled()) {
    if (cost_cache != nullptr) {
      result.stmt_costs_computed += cost_cache->misses();
      result.stmt_costs_cached += cost_cache->hits();
    }
    return result;
  }

  // 4. Index merging over the selected pool.
  if (options_.enable_merging) {
    std::vector<IndexDef> selected_defs;
    selected_defs.reserve(selected.size());
    for (const uint32_t id : selected) {
      selected_defs.push_back(pool[id].est.def);
    }
    std::vector<IndexDef> merged = generator.MergeCandidates(selected_defs);
    if (!merged.empty()) {
      t0 = Clock::now();
      const std::map<std::string, PhysicalIndexEstimate> merged_sizes =
          EstimateSizes(merged, &result);
      result.estimation_ms += millis_since(t0);
      // A cancel inside the merged batch leaves merged_sizes short; merged
      // candidates are only admitted when every one of them was sized.
      if (!CancelRequested()) {
        for (const IndexDef& def : merged) {
          selected.push_back(pool.Add(merged_sizes.at(def.Signature())));
        }
      }
    }
  }
  result.num_candidates = selected.size();
  if (options_.trace) {
    for (const uint32_t id : selected) {
      std::fprintf(stderr, "[pool] %s ~%.0fKB\n",
                   pool[id].est.def.ToString().c_str(),
                   pool[id].est.bytes / 1024.0);
    }
  }
  ReportProgress("merging");
  if (cancelled()) {
    if (cost_cache != nullptr) {
      result.stmt_costs_computed += cost_cache->misses();
      result.stmt_costs_cached += cost_cache->hits();
    }
    return result;
  }

  // 5. Enumeration. A cancel inside Enumerate still falls through here, so
  // a cancelled result carries real initial/final costs for its partial
  // configuration.
  t0 = Clock::now();
  result.initial_cost =
      WorkloadCost(workload, pool, {}, cost_cache.get(), &result);
  const std::vector<uint32_t> design = Enumerate(
      workload, pool, selected, budget_bytes, cost_cache.get(), &result);
  result.final_cost =
      WorkloadCost(workload, pool, design, cost_cache.get(), &result);
  result.config = pool.Materialize(design);
  result.charged_bytes = ChargedBytes(result.config);
  result.enumeration_ms += millis_since(t0);
  ReportProgress("enumeration");
  if (cost_cache != nullptr) {
    result.stmt_costs_computed += cost_cache->misses();
    result.stmt_costs_cached += cost_cache->hits();
  }
  return result;
}

AdvisorResult Advisor::TuneStagedBaseline(const Workload& workload,
                                          double budget_bytes,
                                          CompressionKind kind) {
  // Stage 1: classic tuning without compression. The stage-1 advisor
  // shares this advisor's SizeEstimator, so its samples (and, when
  // options_.size_options.cache is set, its cross-round EstimationCache)
  // are reused by the stage-2 re-estimation instead of re-drawn.
  AdvisorOptions staged_options = options_;
  staged_options.enable_compression = false;
  Advisor stage1(*db_, *optimizer_, sizes_, mvs_, staged_options);
  AdvisorResult result = stage1.Tune(workload, budget_bytes);
  if (result.cancelled || CancelRequested()) {
    result.cancelled = true;
    return result;  // stage-1 design, uncompressed
  }

  // Stage 2: compress every chosen index, re-estimating sizes (one batch
  // across the estimation pool) and re-costing the workload with the
  // per-statement costings fanned across the enumeration pool.
  using Clock = std::chrono::steady_clock;
  auto t0 = Clock::now();
  std::vector<IndexDef> compressed;
  for (const PhysicalIndexEstimate& idx : result.config.indexes()) {
    compressed.push_back(idx.def.WithCompression(kind));
  }
  const std::map<std::string, PhysicalIndexEstimate> sizes =
      EstimateSizes(compressed, &result);
  result.estimation_ms +=
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  // A cancel anywhere in stage 2 (mid-estimation or mid-re-cost) keeps the
  // coherent stage-1 design: `sizes` may be short and a pooled sum that
  // skipped statements is meaningless, so result.config/final_cost are only
  // overwritten once stage 2 finished clean.
  if (CancelRequested()) {
    result.cancelled = true;
    return result;  // stage-1 design, uncompressed
  }
  Configuration config;
  for (const IndexDef& def : compressed) {
    config.Add(sizes.at(def.Signature()));
  }
  t0 = Clock::now();
  const double final_cost = PooledWorkloadCost(workload, config, &result);
  result.enumeration_ms +=
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (CancelRequested()) {
    result.cancelled = true;
    return result;  // stage-1 design, uncompressed
  }
  result.config = std::move(config);
  result.final_cost = final_cost;
  result.charged_bytes = ChargedBytes(result.config);
  ReportProgress("staged-recompress");
  return result;
}

}  // namespace capd
