// A hypothetical physical configuration: the set of indexes the what-if
// optimizer costs a statement against, each with its (estimated) size. The
// estimated size matters doubly — it drives I/O cost AND the storage-budget
// accounting in enumeration.
#ifndef CAPD_OPTIMIZER_CONFIGURATION_H_
#define CAPD_OPTIMIZER_CONFIGURATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/index_def.h"

namespace capd {

struct PhysicalIndexEstimate {
  IndexDef def;
  double bytes = 0.0;   // estimated total size
  double tuples = 0.0;  // estimated entry count

  double pages() const { return bytes / kPageSize; }
};

class Configuration {
 public:
  Configuration() = default;

  void Add(PhysicalIndexEstimate idx);
  bool Contains(const std::string& signature) const;

  const std::vector<PhysicalIndexEstimate>& indexes() const { return indexes_; }
  std::vector<const PhysicalIndexEstimate*> IndexesOn(
      const std::string& object) const;
  // True if some clustered index on `object` is present.
  bool HasClusteredOn(const std::string& object) const;

  double TotalBytes() const;
  size_t size() const { return indexes_.size(); }

  std::string ToString() const;

 private:
  // Materializes id-checked member vectors without Add's signature check.
  friend class CandidatePool;

  std::vector<PhysicalIndexEstimate> indexes_;
};

}  // namespace capd

#endif  // CAPD_OPTIMIZER_CONFIGURATION_H_
