#include "optimizer/cost_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace capd {
namespace {

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

void AppendU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

}  // namespace

StatementCostCache::StatementCostCache(const Database& db,
                                       const WhatIfOptimizer& optimizer,
                                       const Workload& workload)
    : db_(&db),
      optimizer_(&optimizer),
      workload_(&workload),
      shards_(workload.statements.size()) {
  scopes_.reserve(workload.statements.size());
  for (const Statement& stmt : workload.statements) {
    StatementScope scope;
    switch (stmt.type) {
      case StatementType::kSelect: {
        const SelectQuery& q = stmt.select;
        auto add_table = [&](const std::string& t) -> TableScope& {
          for (TableScope& ts : scope.tables) {
            if (ts.table == t) return ts;
          }
          TableScope ts;
          ts.table = t;
          ts.preds = q.PredicatesOn(t, db);
          ts.cols_used = q.ColumnsUsedOn(t, db);
          scope.tables.push_back(std::move(ts));
          return scope.tables.back();
        };
        add_table(q.table);
        for (const JoinClause& j : q.joins) {
          add_table(j.dim_table).join_keys.push_back(j.dim_key);
        }
        break;
      }
      case StatementType::kInsert: {
        scope.is_insert = true;
        TableScope ts;
        ts.table = stmt.insert.table;
        scope.tables.push_back(std::move(ts));
        break;
      }
    }
    scopes_.push_back(std::move(scope));
  }
}

bool StatementCostCache::ComputeRelevant(size_t stmt_index,
                                         const IndexDef& idx) const {
  const StatementScope& scope = scopes_[stmt_index];
  if (!db_->HasTable(idx.object)) {
    // Index on a materialized view: invisible to the optimizer without a
    // matcher; otherwise it may answer any SELECT, and an INSERT maintains
    // it only when the MV is defined over the inserted table (mirrors
    // CostSelect/CostInsert exactly).
    const MVMatcher* matcher = optimizer_->mv_matcher();
    if (matcher == nullptr) return false;
    if (!scope.is_insert) return true;
    return matcher->FactTableOf(idx.object) == scope.tables.front().table;
  }

  const TableScope* ts = nullptr;
  for (const TableScope& t : scope.tables) {
    if (t.table == idx.object) {
      ts = &t;
      break;
    }
  }
  if (ts == nullptr) return false;  // statement never touches the object
  // Every index on the loaded table is maintained by a bulk INSERT.
  if (scope.is_insert) return true;
  // A clustered index replaces the heap, changing the base access path
  // whether or not it is itself chosen.
  if (idx.clustered) return true;
  // Mirror IndexAccessCost's usability gates. A partial index whose filter
  // the statement's predicates do not subsume is unusable (and the
  // index-NL join skips filtered indexes too).
  if (idx.filter.has_value() &&
      !PredicatesSubsumeFilter(ts->preds, *idx.filter)) {
    return false;
  }
  // Index-nested-loops join probe: leading key equals a join's dim key.
  if (!idx.filter.has_value() && !idx.key_columns.empty() &&
      Contains(ts->join_keys, idx.key_columns.front())) {
    return true;
  }
  // Seekable: a predicate on the leading key column (equality-only for
  // BITMAP structures — mirrors IndexAccessCost's sargable-prefix gate).
  if (!idx.key_columns.empty()) {
    const bool bitmap = idx.compression == CompressionKind::kBitmap;
    for (const ColumnFilter& p : ts->preds) {
      if (p.column != idx.key_columns.front()) continue;
      if (bitmap && p.op != FilterOp::kEq) continue;
      return true;
    }
  }
  // Covering: every column the statement uses on this table is stored.
  const std::vector<std::string> stored =
      idx.StoredColumns(db_->table(idx.object).schema());
  return std::all_of(
      ts->cols_used.begin(), ts->cols_used.end(),
      [&stored](const std::string& c) { return Contains(stored, c); });
}

std::vector<char> StatementCostCache::RelevanceOf(const IndexDef& idx) const {
  std::vector<char> relevant(scopes_.size());
  for (size_t i = 0; i < scopes_.size(); ++i) {
    relevant[i] = ComputeRelevant(i, idx) ? 1 : 0;
  }
  return relevant;
}

double StatementCostCache::StatementCost(
    size_t stmt_index, const CandidatePool& pool,
    const std::vector<uint32_t>& members, std::string* key,
    std::optional<Configuration>* config) {
  // The cost of a statement is a function of the *ordered subsequence* of
  // relevant indexes (best-path ties and floating-point sums follow
  // configuration order), so the key preserves that order — never sorts.
  // The statement index itself is the shard, so it never enters the key.
  key->clear();
  for (const uint32_t id : members) {
    if (pool[id].relevant[stmt_index]) AppendU32(key, id);
  }
  Shard& shard = shards_[stmt_index];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.costs.find(*key);
    if (it != shard.costs.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  if (!config->has_value()) *config = pool.Materialize(members);
  const double cost =
      optimizer_->Cost(workload_->statements[stmt_index], **config);
  std::lock_guard<std::mutex> lock(shard.mu);
  // A racing thread may have inserted the key meanwhile; only the winning
  // insert counts as computed, so the counters are a function of the
  // requested keys alone.
  const bool inserted = shard.costs.emplace(*key, cost).second;
  (inserted ? misses_ : hits_).fetch_add(1, std::memory_order_relaxed);
  return cost;
}

double StatementCostCache::Cost(size_t stmt_index, const CandidatePool& pool,
                                const std::vector<uint32_t>& members) {
  CAPD_CHECK(pool.cache() == this) << "pool interned without this cache";
  std::string key;
  std::optional<Configuration> config;
  return StatementCost(stmt_index, pool, members, &key, &config);
}

double StatementCostCache::WorkloadCost(const CandidatePool& pool,
                                        const std::vector<uint32_t>& members) {
  CAPD_CHECK(pool.cache() == this) << "pool interned without this cache";
  std::string key;
  key.reserve(4 * members.size());
  std::optional<Configuration> config;
  double total = 0.0;
  for (size_t i = 0; i < workload_->statements.size(); ++i) {
    total += workload_->statements[i].weight *
             StatementCost(i, pool, members, &key, &config);
  }
  return total;
}

}  // namespace capd
