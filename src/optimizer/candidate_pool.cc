#include "optimizer/candidate_pool.h"

#include <algorithm>

#include "common/logging.h"
#include "optimizer/cost_cache.h"

namespace capd {

uint32_t CandidatePool::Add(PhysicalIndexEstimate est) {
  std::string signature = est.def.Signature();
  const auto it = by_signature_.find(signature);
  if (it != by_signature_.end()) {
    entries_[it->second].est = std::move(est);
    return it->second;
  }
  const uint32_t id = static_cast<uint32_t>(entries_.size());
  Entry entry;
  entry.structure =
      structures_
          .emplace(est.def.StructureSignature(),
                   static_cast<uint32_t>(structures_.size()))
          .first->second;
  if (cache_ != nullptr) entry.relevant = cache_->RelevanceOf(est.def);
  entry.est = std::move(est);
  by_signature_.emplace(std::move(signature), id);
  entries_.push_back(std::move(entry));
  return id;
}

Configuration CandidatePool::Materialize(
    const std::vector<uint32_t>& members) const {
  Configuration config;
  config.indexes_.reserve(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    CAPD_CHECK(std::find(members.begin(), members.begin() + i, members[i]) ==
               members.begin() + i)
        << "duplicate index in configuration: "
        << entries_[members[i]].est.def.ToString();
    config.indexes_.push_back(entries_[members[i]].est);
  }
  return config;
}

}  // namespace capd
