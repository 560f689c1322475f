#include "index/index_def.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace capd {

bool ColumnFilter::Matches(const Row& row, const Schema& schema) const {
  const Value& v = row[schema.ColumnIndex(column)];
  switch (op) {
    case FilterOp::kEq:
      return v.Compare(lo) == 0;
    case FilterOp::kLt:
      return v.Compare(lo) < 0;
    case FilterOp::kLe:
      return v.Compare(lo) <= 0;
    case FilterOp::kGt:
      return v.Compare(lo) > 0;
    case FilterOp::kGe:
      return v.Compare(lo) >= 0;
    case FilterOp::kBetween:
      return v.Compare(lo) >= 0 && v.Compare(hi) <= 0;
  }
  return false;
}

std::string ColumnFilter::ToString() const {
  static const char* const kOpText[] = {"=", "<", "<=", ">", ">=",
                                        " BETWEEN "};  // by FilterOp
  static_assert(static_cast<int>(FilterOp::kBetween) == 5, "kOpText order");
  std::string out = column + kOpText[static_cast<int>(op)] + lo.ToString();
  if (op == FilterOp::kBetween) out += " AND " + hi.ToString();
  return out;
}

std::vector<std::string> IndexDef::StoredColumns(
    const Schema& base_schema) const {
  std::vector<std::string> cols = key_columns;
  if (clustered) {
    for (const Column& c : base_schema.columns()) {
      if (std::find(cols.begin(), cols.end(), c.name) == cols.end()) {
        cols.push_back(c.name);
      }
    }
  } else {
    for (const std::string& c : include_columns) {
      if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
        cols.push_back(c);
      }
    }
  }
  return cols;
}

IndexDef IndexDef::WithCompression(CompressionKind kind) const {
  IndexDef copy = *this;
  copy.compression = kind;
  return copy;
}

// Signature bytes are frozen: they key the estimation cache and appear in
// goldens (tests/index_test.cc pins them).
std::string IndexDef::StructureSignature() const {
  std::string out = object + (clustered ? "|C|" : "|N|");
  for (const std::string& c : key_columns) out.append(c) += ',';
  out += '|';
  for (const std::string& c : include_columns) out.append(c) += ',';
  if (filter.has_value()) out += "|F:" + filter->ToString();
  return out;
}

std::string IndexDef::Signature() const {
  return StructureSignature() + '|' + CompressionKindName(compression);
}

std::string IndexDef::ColumnSetSignature(const Schema& base_schema) const {
  std::vector<std::string> cols = StoredColumns(base_schema);
  std::sort(cols.begin(), cols.end());
  std::string out = object + (clustered ? "|C|" : "|N|");
  for (const std::string& c : cols) out.append(c) += ',';
  if (filter.has_value()) out += "|F:" + filter->ToString();
  return out;
}

std::string IndexDef::ToString() const {
  std::ostringstream os;
  os << (clustered ? "CLUSTERED " : "") << "IDX(" << object << ": ";
  for (size_t i = 0; i < key_columns.size(); ++i) {
    if (i > 0) os << ",";
    os << key_columns[i];
  }
  if (!include_columns.empty()) {
    os << " INCLUDE ";
    for (size_t i = 0; i < include_columns.size(); ++i) {
      if (i > 0) os << ",";
      os << include_columns[i];
    }
  }
  if (filter.has_value()) os << " WHERE " << filter->ToString();
  os << ") " << CompressionKindName(compression);
  return os.str();
}

}  // namespace capd
