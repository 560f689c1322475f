// Per-statement what-if cost cache: the advisor's greedy search costs the
// whole workload once per trial configuration, but adding one index only
// changes the cost of statements that can actually see it — every other
// statement's cost is unchanged from the previous trial. Memoizing
// Cost(statement, config) by (statement, the ordered subsequence of config
// indexes relevant to that statement) turns each greedy step from
// O(pool × workload) full costings into O(pool × affected statements),
// while staying bit-identical to the uncached optimizer: a hit returns a
// double produced by the exact computation a miss would run.
//
// Relevance mirrors the optimizer's own gates conservatively (an index
// marked relevant may still contribute nothing; an index marked irrelevant
// provably cannot change the plan): an index is relevant to a SELECT iff
// it sits on a touched table and is clustered (replaces the heap), usable
// as an access path (seekable prefix or covering, partial filter
// subsumed), or usable for an index-nested-loops join; it is relevant to
// an INSERT iff it must be maintained (same table, or an MV over it).
#ifndef CAPD_OPTIMIZER_COST_CACHE_H_
#define CAPD_OPTIMIZER_COST_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/database.h"
#include "optimizer/candidate_pool.h"
#include "optimizer/what_if.h"
#include "query/query.h"

namespace capd {

// Thread-safe: Enumerate's parallel trial evaluations share one cache.
// Concurrent misses on the same key both run the (pure, deterministic)
// optimizer; the thread whose insert wins counts the miss and the other a
// hit, so results and counters depend only on the requested key sequence,
// never on thread count or interleaving.
class StatementCostCache {
 public:
  // All three referents must outlive the cache.
  StatementCostCache(const Database& db, const WhatIfOptimizer& optimizer,
                     const Workload& workload);

  // Unweighted Cost(statement, configuration of `members`), served from the
  // cache when the relevant subsequence has been costed before. `pool` must
  // have been built with this cache.
  double Cost(size_t stmt_index, const CandidatePool& pool,
              const std::vector<uint32_t>& members);

  // Sum of weight * Cost over the workload — bit-identical to
  // WhatIfOptimizer::WorkloadCost (same per-statement terms, summed in the
  // same statement order).
  double WorkloadCost(const CandidatePool& pool,
                      const std::vector<uint32_t>& members);

  // Statement costings served from the cache / computed by the optimizer.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  // Per statement, 1 if `idx` can influence its cost. CandidatePool stores
  // this once per interned index.
  std::vector<char> RelevanceOf(const IndexDef& idx) const;

 private:
  // Per touched table: the statement's predicates, used columns and join
  // keys there — everything the relevance gates need, precomputed once.
  struct TableScope {
    std::string table;
    std::vector<ColumnFilter> preds;
    std::vector<std::string> cols_used;
    std::vector<std::string> join_keys;  // dim keys when joined as dimension
  };
  struct StatementScope {
    std::vector<TableScope> tables;
    bool is_insert = false;
  };

  bool ComputeRelevant(size_t stmt_index, const IndexDef& idx) const;
  // Cost of one statement; `key` is a reusable buffer, `config` the members'
  // configuration, materialized on the first miss of the caller.
  double StatementCost(size_t stmt_index, const CandidatePool& pool,
                       const std::vector<uint32_t>& members, std::string* key,
                       std::optional<Configuration>* config);

  const Database* db_;
  const WhatIfOptimizer* optimizer_;
  const Workload* workload_;
  std::vector<StatementScope> scopes_;

  // Cost entries are sharded per statement (the statement index is the
  // natural partition of every key), so the selection/enumeration fan-out
  // contends per statement instead of on one global mutex. Keys are the
  // little-endian pool ids of the relevant members, in member order.
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, double> costs;  // byte key -> cost
  };
  std::vector<Shard> shards_;  // one per workload statement

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace capd

#endif  // CAPD_OPTIMIZER_COST_CACHE_H_
