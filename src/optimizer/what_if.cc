#include "optimizer/what_if.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace capd {
namespace {

// Numeric [lo, hi] range selected by a filter, given column stats.
void FilterRange(const ColumnFilter& f, const ColumnStats& cs, double* lo,
                 double* hi) {
  switch (f.op) {
    case FilterOp::kEq:
      *lo = *hi = f.lo.NumericKey();
      return;
    case FilterOp::kLt:
    case FilterOp::kLe:
      *lo = cs.min_key;
      *hi = f.lo.NumericKey();
      return;
    case FilterOp::kGt:
    case FilterOp::kGe:
      *lo = f.lo.NumericKey();
      *hi = cs.max_key;
      return;
    case FilterOp::kBetween:
      *lo = f.lo.NumericKey();
      *hi = f.hi.NumericKey();
      return;
  }
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

}  // namespace

bool PredicatesSubsumeFilter(const std::vector<ColumnFilter>& preds,
                             const ColumnFilter& filter) {
  // A predicate on the same column whose range is inside the filter's range
  // implies the filter. Ranges are compared on the numeric key; unbounded
  // sides are +-infinity.
  auto range_of = [](const ColumnFilter& f, double* lo, double* hi) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    switch (f.op) {
      case FilterOp::kEq:
        *lo = *hi = f.lo.NumericKey();
        return;
      case FilterOp::kLt:
      case FilterOp::kLe:
        *lo = -kInf;
        *hi = f.lo.NumericKey();
        return;
      case FilterOp::kGt:
      case FilterOp::kGe:
        *lo = f.lo.NumericKey();
        *hi = kInf;
        return;
      case FilterOp::kBetween:
        *lo = f.lo.NumericKey();
        *hi = f.hi.NumericKey();
        return;
    }
  };
  double flo = 0.0, fhi = 0.0;
  range_of(filter, &flo, &fhi);
  for (const ColumnFilter& p : preds) {
    if (p.column != filter.column) continue;
    double plo = 0.0, phi = 0.0;
    range_of(p, &plo, &phi);
    if (plo >= flo && phi <= fhi) return true;
  }
  return false;
}

double WhatIfOptimizer::FilterSelectivity(const std::string& table,
                                          const ColumnFilter& filter) const {
  const ColumnStats& cs = db_->stats(table).column(filter.column);
  if (cs.num_rows == 0) return 0.0;
  if (filter.op == FilterOp::kEq) {
    return 1.0 / static_cast<double>(std::max<uint64_t>(cs.distinct, 1));
  }
  double lo = 0.0, hi = 0.0;
  FilterRange(filter, cs, &lo, &hi);
  return cs.histogram.SelectivityBetween(lo, hi);
}

double WhatIfOptimizer::Selectivity(
    const std::string& table, const std::vector<ColumnFilter>& filters) const {
  double sel = 1.0;
  for (const ColumnFilter& f : filters) sel *= FilterSelectivity(table, f);
  return sel;
}

PlanCost WhatIfOptimizer::HeapScanCost(const std::string& table,
                                       bool explain) const {
  // A heap scan always reads everything, whatever the predicates.
  const Table& t = db_->table(table);
  PlanCost cost;
  cost.io = params_.seq_page_io * static_cast<double>(t.HeapPages());
  cost.cpu = params_.cpu_per_tuple_read * static_cast<double>(t.num_rows());
  if (explain) cost.access_path = "heap scan(" + table + ")";
  return cost;
}

std::optional<PlanCost> WhatIfOptimizer::IndexAccessCost(
    const std::string& table, const PhysicalIndexEstimate& idx,
    const std::vector<ColumnFilter>& preds,
    const std::vector<std::string>& cols_used, bool explain) const {
  if (idx.def.object != table) return std::nullopt;

  // Partial index: usable only when the query cannot need rows outside it.
  double filter_sel = 1.0;
  if (idx.def.filter.has_value()) {
    if (!PredicatesSubsumeFilter(preds, *idx.def.filter)) return std::nullopt;
    filter_sel = FilterSelectivity(table, *idx.def.filter);
  }

  const Schema& base = db_->table(table).schema();
  const std::vector<std::string> stored = idx.def.StoredColumns(base);
  const bool covering = std::all_of(
      cols_used.begin(), cols_used.end(),
      [&stored](const std::string& c) { return Contains(stored, c); });

  // Selectivity of a predicate *within the index's population*: for the
  // partial-index filter column the filter is already applied, so condition
  // on it; other columns are treated as independent of the filter.
  auto sel_in_index = [&](const ColumnFilter& p) {
    double s = FilterSelectivity(table, p);
    if (idx.def.filter.has_value() && p.column == idx.def.filter->column &&
        filter_sel > 0.0) {
      s = std::min(1.0, s / filter_sel);
    }
    return s;
  };

  // Fraction of index entries reached through the sargable key prefix. A
  // BITMAP structure keys per-value bitmaps, so only equality predicates
  // seek it — range predicates fall through to the covering-scan path.
  const bool bitmap = idx.def.compression == CompressionKind::kBitmap;
  double prefix_frac = 1.0;
  size_t sargable = 0;
  for (const std::string& key_col : idx.def.key_columns) {
    bool found = false;
    for (const ColumnFilter& p : preds) {
      if (p.column != key_col) continue;
      if (bitmap && p.op != FilterOp::kEq) continue;
      prefix_frac *= sel_in_index(p);
      found = true;
      break;
    }
    if (!found) break;
    ++sargable;
  }
  const bool seekable = sargable > 0;
  if (!seekable && !covering) return std::nullopt;

  // Fraction of index entries satisfying every predicate resolvable inside
  // the index (these survive to the RID-lookup stage).
  double stored_frac = 1.0;
  for (const ColumnFilter& p : preds) {
    if (Contains(stored, p.column)) stored_frac *= sel_in_index(p);
  }

  const double tuples = std::max(idx.tuples, 1.0);
  const double pages = std::max(idx.pages(), 1.0);
  const size_t used_in_index =
      static_cast<size_t>(std::count_if(cols_used.begin(), cols_used.end(),
                                        [&stored](const std::string& c) {
                                          return Contains(stored, c);
                                        }));
  const double beta = params_.Beta(idx.def.compression);

  PlanCost best;
  best.io = std::numeric_limits<double>::infinity();

  if (covering) {
    PlanCost scan;
    scan.io = params_.seq_page_io * pages;
    scan.cpu = tuples * (params_.cpu_per_tuple_read +
                         static_cast<double>(used_in_index) * beta);
    if (explain) scan.access_path = "index scan(" + idx.def.ToString() + ")";
    if (scan.total() < best.total()) best = scan;
  }

  if (seekable) {
    const double entries = tuples * prefix_frac;
    PlanCost seek;
    seek.io = params_.random_page_io * 2.0 +
              params_.seq_page_io * std::max(1.0, pages * prefix_frac);
    seek.cpu = entries * (params_.cpu_per_tuple_read +
                          static_cast<double>(used_in_index) * beta);
    if (bitmap) {
      // One WAH expansion + rank/select AND per sargable equality key.
      seek.cpu += params_.bitmap_probe_cpu * static_cast<double>(sargable);
    }
    if (!covering) {
      const double lookups = tuples * std::min(1.0, stored_frac);
      seek.io += params_.random_page_io * lookups;
      seek.cpu += params_.cpu_per_tuple_read * lookups;
    }
    if (explain) {
      seek.access_path = (covering ? "index seek(" : "index seek+lookup(") +
                         idx.def.ToString() + ")";
    }
    if (seek.total() < best.total()) best = seek;
  }

  if (best.io == std::numeric_limits<double>::infinity()) return std::nullopt;
  return best;
}

PlanCost WhatIfOptimizer::BestTableAccess(const SelectQuery& q,
                                          const std::string& table,
                                          const Configuration& config,
                                          bool explain) const {
  const std::vector<ColumnFilter> preds = q.PredicatesOn(table, *db_);
  const std::vector<std::string> cols_used = q.ColumnsUsedOn(table, *db_);

  PlanCost best;
  bool have = false;
  // The heap exists unless a clustered index replaced it.
  if (!config.HasClusteredOn(table)) {
    best = HeapScanCost(table, explain);
    have = true;
  }
  for (const PhysicalIndexEstimate* idx : config.IndexesOn(table)) {
    std::optional<PlanCost> c =
        IndexAccessCost(table, *idx, preds, cols_used, explain);
    if (c.has_value() && (!have || c->total() < best.total())) {
      best = *c;
      have = true;
    }
  }
  CAPD_CHECK(have) << "no access path for table " << table
                   << " (clustered index removed the heap but is unusable?)";
  return best;
}

PlanCost WhatIfOptimizer::CostSelect(const SelectQuery& q,
                                     const Configuration& config,
                                     bool explain) const {
  // Base relational plan: root access + one join at a time.
  PlanCost plan = BestTableAccess(q, q.table, config, explain);
  const double root_sel = Selectivity(q.table, q.PredicatesOn(q.table, *db_));
  const double root_rows =
      static_cast<double>(db_->table(q.table).num_rows()) * root_sel;

  for (const JoinClause& j : q.joins) {
    const PlanCost dim_scan = BestTableAccess(q, j.dim_table, config, explain);
    const double dim_rows = static_cast<double>(db_->table(j.dim_table).num_rows());
    // Hash join: build on the dimension side, probe with root rows.
    PlanCost hash = dim_scan;
    hash.cpu += params_.cpu_per_tuple_read * (dim_rows + root_rows);

    // Index nested loops: per-row seek into a dimension index keyed on the
    // join key, if the configuration has one.
    PlanCost nl;
    nl.io = std::numeric_limits<double>::infinity();
    for (const PhysicalIndexEstimate* idx : config.IndexesOn(j.dim_table)) {
      if (idx->def.key_columns.empty() || idx->def.key_columns[0] != j.dim_key)
        continue;
      if (idx->def.filter.has_value()) continue;
      PlanCost c;
      c.io = root_rows * params_.random_page_io;
      const double beta = params_.Beta(idx->def.compression);
      const std::vector<std::string> dim_cols = q.ColumnsUsedOn(j.dim_table, *db_);
      c.cpu = root_rows * (params_.cpu_per_tuple_read +
                           static_cast<double>(dim_cols.size()) * beta);
      if (explain) c.access_path = "index NL(" + idx->def.ToString() + ")";
      if (c.total() < nl.total()) nl = c;
    }

    const PlanCost& join = nl.total() < hash.total() ? nl : hash;
    plan.io += join.io;
    plan.cpu += join.cpu;
  }

  // Grouping/aggregation/output CPU.
  if (!q.group_by.empty() || !q.aggregates.empty()) {
    plan.cpu += params_.cpu_per_tuple_read * root_rows;
  }

  // Alternative: answer the whole query from an MV index.
  if (mv_matcher_ != nullptr) {
    for (const PhysicalIndexEstimate& idx : config.indexes()) {
      std::optional<MVMatcher::MVAccess> access = mv_matcher_->Match(idx.def, q);
      if (!access.has_value()) continue;
      PlanCost mv_plan;
      const double mv_pages = std::max(idx.pages(), 1.0);
      const double frac = access->selected_frac;
      if (access->leading_key_seek && frac < 1.0) {
        mv_plan.io = params_.random_page_io * 2.0 +
                     params_.seq_page_io * std::max(1.0, mv_pages * frac);
      } else {
        mv_plan.io = params_.seq_page_io * mv_pages;
      }
      const double beta = params_.Beta(idx.def.compression);
      mv_plan.cpu = access->mv_tuples * frac *
                    (params_.cpu_per_tuple_read +
                     static_cast<double>(access->used_columns) * beta);
      if (explain) mv_plan.access_path = "MV " + idx.def.ToString();
      if (mv_plan.total() < plan.total()) plan = mv_plan;
    }
  }
  return plan;
}

PlanCost WhatIfOptimizer::CostInsert(const InsertStatement& ins,
                                     const Configuration& config,
                                     bool explain) const {
  const Table& t = db_->table(ins.table);
  const double rows = static_cast<double>(ins.num_rows);
  PlanCost plan;
  if (explain) plan.access_path = "bulk insert(" + ins.table + ")";

  // Heap (or clustered index) append.
  const double heap_row_bytes = t.schema().RowWidth() + kRowOverhead;
  plan.io = params_.seq_page_io * rows * heap_row_bytes / kPageCapacity;
  plan.cpu = params_.cpu_per_tuple_write * rows;

  for (const PhysicalIndexEstimate& idx : config.indexes()) {
    if (idx.def.object != ins.table) {
      // Indexes on MVs over this fact table must be maintained too: each
      // inserted row updates one group (count/sums) in the MV.
      if (mv_matcher_ != nullptr &&
          mv_matcher_->FactTableOf(idx.def.object) == ins.table) {
        const double alpha = params_.Alpha(idx.def.compression);
        plan.cpu += rows * (params_.cpu_per_tuple_write + alpha);
        const double pages = std::max(idx.pages(), 1.0);
        const double touched = pages * (1.0 - std::exp(-rows / pages));
        plan.io += params_.random_page_io * touched * params_.index_maintenance_io_factor;
      }
      continue;
    }
    double enter_frac = 1.0;
    if (idx.def.filter.has_value()) {
      enter_frac = FilterSelectivity(ins.table, *idx.def.filter);
    }
    const double rows_idx = rows * enter_frac;
    const double alpha = params_.Alpha(idx.def.compression);
    // CPUCost_update = BaseCPUCost + alpha * #tuples_written (Appendix A.1).
    plan.cpu += rows_idx * (params_.cpu_per_tuple_write + alpha);
    // Sequential write volume of the new entries...
    const double bytes_per_tuple = idx.bytes / std::max(idx.tuples, 1.0);
    plan.io += params_.seq_page_io * rows_idx * bytes_per_tuple / kPageCapacity;
    // ...plus scattered B-tree leaf maintenance, damped by buffer-pool hits.
    const double pages = std::max(idx.pages(), 1.0);
    const double touched = pages * (1.0 - std::exp(-rows_idx / pages));
    plan.io += params_.random_page_io * touched * params_.index_maintenance_io_factor;
  }
  return plan;
}

PlanCost WhatIfOptimizer::Plan(const Statement& stmt,
                               const Configuration& config,
                               bool explain) const {
  switch (stmt.type) {
    case StatementType::kSelect:
      return CostSelect(stmt.select, config, explain);
    case StatementType::kInsert:
      return CostInsert(stmt.insert, config, explain);
  }
  return PlanCost{};
}

PlanCost WhatIfOptimizer::CostWithPlan(const Statement& stmt,
                                       const Configuration& config) const {
  return Plan(stmt, config, /*explain=*/true);
}

double WhatIfOptimizer::Cost(const Statement& stmt,
                             const Configuration& config) const {
  return Plan(stmt, config, /*explain=*/false).total();
}

double WhatIfOptimizer::WorkloadCost(const Workload& workload,
                                     const Configuration& config) const {
  double total = 0.0;
  for (const Statement& s : workload.statements) {
    total += s.weight * Cost(s, config);
  }
  return total;
}

}  // namespace capd
