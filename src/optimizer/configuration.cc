#include "optimizer/configuration.h"

#include <sstream>

#include "common/logging.h"

namespace capd {

void Configuration::Add(PhysicalIndexEstimate idx) {
  CAPD_CHECK(!Contains(idx.def.Signature()))
      << "duplicate index in configuration: " << idx.def.ToString();
  indexes_.push_back(std::move(idx));
}

bool Configuration::Contains(const std::string& signature) const {
  for (const PhysicalIndexEstimate& idx : indexes_) {
    if (idx.def.Signature() == signature) return true;
  }
  return false;
}

std::vector<const PhysicalIndexEstimate*> Configuration::IndexesOn(
    const std::string& object) const {
  std::vector<const PhysicalIndexEstimate*> out;
  for (const PhysicalIndexEstimate& idx : indexes_) {
    if (idx.def.object == object) out.push_back(&idx);
  }
  return out;
}

bool Configuration::HasClusteredOn(const std::string& object) const {
  for (const PhysicalIndexEstimate& idx : indexes_) {
    if (idx.def.object == object && idx.def.clustered) return true;
  }
  return false;
}

double Configuration::TotalBytes() const {
  double bytes = 0.0;
  for (const PhysicalIndexEstimate& idx : indexes_) bytes += idx.bytes;
  return bytes;
}

std::string Configuration::ToString() const {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (i > 0) os << "; ";
    os << indexes_[i].def.ToString() << " ~"
       << static_cast<uint64_t>(indexes_[i].bytes / 1024) << "KB";
  }
  os << "}";
  return os.str();
}

}  // namespace capd
