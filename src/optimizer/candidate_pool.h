// The what-if search's candidate table: every index one Tune considers,
// interned once by signature into a dense id. An entry carries everything
// the search asks about an index — its size estimate, a dense id of its
// compression-free structure and, when the search is cost-cached, the
// statements it is relevant to — so selection and enumeration work on
// vectors of member ids and never re-render a signature. A Configuration is
// materialized only where the optimizer actually runs.
#ifndef CAPD_OPTIMIZER_CANDIDATE_POOL_H_
#define CAPD_OPTIMIZER_CANDIDATE_POOL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "optimizer/configuration.h"

namespace capd {

class StatementCostCache;

class CandidatePool {
 public:
  struct Entry {
    PhysicalIndexEstimate est;
    uint32_t structure = 0;      // dense id of est.def.StructureSignature()
    std::vector<char> relevant;  // per statement; empty without a cache
  };

  // `cache` may be null (uncached search). When set, each interned index
  // gets its per-statement relevance bitmap from it, and only that cache
  // may cost member vectors of this pool. It must outlive the pool.
  explicit CandidatePool(const StatementCostCache* cache)
      : cache_(cache) {}

  // Interns `est` and returns its id. Re-adding a signature replaces its
  // estimate and keeps its id (cost-cache keys are per identity).
  uint32_t Add(PhysicalIndexEstimate est);

  const Entry& operator[](uint32_t id) const { return entries_[id]; }
  size_t size() const { return entries_.size(); }
  const StatementCostCache* cache() const { return cache_; }

  // The configuration of `members`, in member order. Members must be
  // distinct ids — the id form of Configuration::Add's duplicate check.
  Configuration Materialize(const std::vector<uint32_t>& members) const;

 private:
  const StatementCostCache* cache_;
  std::vector<Entry> entries_;
  std::unordered_map<std::string, uint32_t> by_signature_;
  std::unordered_map<std::string, uint32_t> structures_;
};

}  // namespace capd

#endif  // CAPD_OPTIMIZER_CANDIDATE_POOL_H_
