// The what-if optimizer: Cost(statement, hypothetical configuration) — the
// API every physical design tool is built on (Section 3). Access paths:
// heap scan, (covering) index scan, index seek with optional RID lookups,
// partial-index use when the query's predicates subsume the index filter,
// and MV-index answering via a pluggable matcher (implemented in src/mv).
// The cost model is compression aware per Appendix A.
#ifndef CAPD_OPTIMIZER_WHAT_IF_H_
#define CAPD_OPTIMIZER_WHAT_IF_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "optimizer/configuration.h"
#include "optimizer/cost_model.h"
#include "query/query.h"

namespace capd {

// Lets the optimizer ask whether an index on a materialized view can answer
// a query (implemented by MVRegistry in src/mv to keep layering acyclic).
class MVMatcher {
 public:
  virtual ~MVMatcher() = default;

  struct MVAccess {
    double mv_tuples = 0.0;      // rows in the MV
    double selected_frac = 1.0;  // fraction the query reads from the MV
    size_t used_columns = 1;     // columns the query touches in the MV
    bool leading_key_seek = false;  // index key supports the residual filter
  };

  // Returns the access description if `idx` (an index on an MV) can answer
  // `query`; std::nullopt otherwise.
  virtual std::optional<MVAccess> Match(const IndexDef& idx,
                                        const SelectQuery& query) const = 0;

  // If `object` is a registered MV, the fact table it is defined over
  // (INSERTs into that table must maintain the MV's indexes).
  virtual std::optional<std::string> FactTableOf(
      const std::string& object) const {
    (void)object;
    return std::nullopt;
  }
};

// Breakdown of one costed plan (useful for tests and examples).
struct PlanCost {
  double io = 0.0;
  double cpu = 0.0;
  // Human-readable description of the chosen plan; rendered only by
  // CostWithPlan (Cost, the search's hot path, leaves it empty).
  std::string access_path;

  double total() const { return io + cpu; }
};

class WhatIfOptimizer {
 public:
  WhatIfOptimizer(const Database& db, CostModelParams params)
      : db_(&db), params_(params) {}

  // `mv_matcher` may be null (MV indexes in the configuration are ignored).
  void set_mv_matcher(const MVMatcher* matcher) { mv_matcher_ = matcher; }
  const MVMatcher* mv_matcher() const { return mv_matcher_; }

  // Optimizer-estimated cost of the statement under the configuration
  // (unweighted; callers apply Statement::weight).
  double Cost(const Statement& stmt, const Configuration& config) const;
  // The same plan with its access path described; total() equals Cost()
  // to the bit.
  PlanCost CostWithPlan(const Statement& stmt, const Configuration& config) const;

  // Sum of weight * Cost over the workload.
  double WorkloadCost(const Workload& workload,
                      const Configuration& config) const;

  // Estimated combined selectivity of `filters` on `table` (independence
  // across columns, histograms within a column). Exposed for candidate
  // generation and partial-index size estimation.
  double Selectivity(const std::string& table,
                     const std::vector<ColumnFilter>& filters) const;
  double FilterSelectivity(const std::string& table,
                           const ColumnFilter& filter) const;

  const CostModelParams& params() const { return params_; }

 private:
  // Every costing runs through Plan; `explain` only decides whether the
  // access-path text is rendered, never the numbers.
  PlanCost Plan(const Statement& stmt, const Configuration& config,
                bool explain) const;
  PlanCost CostSelect(const SelectQuery& q, const Configuration& config,
                      bool explain) const;
  PlanCost CostInsert(const InsertStatement& ins, const Configuration& config,
                      bool explain) const;

  // Best access path for the sub-query restricted to `table`: returns the
  // cost of producing `out_tuples` qualifying rows with `cols` available.
  PlanCost BestTableAccess(const SelectQuery& q, const std::string& table,
                           const Configuration& config, bool explain) const;

  PlanCost HeapScanCost(const std::string& table, bool explain) const;
  // Cost of using `idx` for this table's portion, or nullopt if unusable.
  std::optional<PlanCost> IndexAccessCost(
      const std::string& table, const PhysicalIndexEstimate& idx,
      const std::vector<ColumnFilter>& preds,
      const std::vector<std::string>& cols_used, bool explain) const;

  const Database* db_;
  CostModelParams params_;
  const MVMatcher* mv_matcher_ = nullptr;
};

// True if query predicates `preds` imply the partial-index filter `filter`
// (i.e. every row the query needs is inside the partial index).
bool PredicatesSubsumeFilter(const std::vector<ColumnFilter>& preds,
                             const ColumnFilter& filter);

}  // namespace capd

#endif  // CAPD_OPTIMIZER_WHAT_IF_H_
