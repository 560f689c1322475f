#include "compress/page_codec.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "compress/null_suppression.h"
#include "compress/varint.h"

namespace capd {
namespace {

// One cell of a column being planned: its span-local row and its first
// (up to) eight bytes as a big-endian integer, so that most comparisons
// are a single integer compare and integer order is unsigned bytewise
// order, as string_view compares.
struct SortedCell {
  uint64_t head;
  uint32_t row;
};

uint64_t BigEndianHead(const char* p, size_t width) {
  uint64_t head = 0;
  if (width >= 8) {
    std::memcpy(&head, p, 8);
#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    head = __builtin_bswap64(head);
#endif
    return head;
  }
  for (size_t k = 0; k < width; ++k) {
    head = (head << 8) | static_cast<unsigned char>(p[k]);
  }
  return head;
}

// Per-column compression plan, shared between CompressPage and MeasurePage
// so the two can never disagree on a byte. The column's cells are sorted
// (into caller-owned scratch, reused across columns) instead of counted
// in a map: runs of equal values are then adjacent, in the lexicographic
// order that assigns dictionary ids.
class ColumnPlan {
 public:
  ColumnPlan(const FlatSpan& span, size_t col, std::vector<SortedCell>* cells)
      : data_(span.column_data(col)), width_(span.width(col)), cells_(cells) {
    const size_t n = span.num_rows();
    cells->resize(n);
    for (size_t i = 0; i < n; ++i) {
      (*cells)[i] = {BigEndianHead(cell(i), width_), static_cast<uint32_t>(i)};
    }
    std::sort(cells->begin(), cells->end(),
              [this](const SortedCell& a, const SortedCell& b) {
                if (a.head != b.head) return a.head < b.head;
                return width_ > 8 && TailCompare(a, b) < 0;
              });
    // The longest prefix every value shares is the one the sorted
    // extremes share.
    if (n > 0) {
      const char* first = cell(cells->front().row);
      const char* last = cell(cells->back().row);
      while (anchor_len_ < width_ && first[anchor_len_] == last[anchor_len_]) {
        ++anchor_len_;
      }
    }
  }

  size_t anchor_len() const { return anchor_len_; }

  // Calls fn(rem, run, count) once per distinct value, in lexicographic
  // order: `rem` is its post-anchor remainder and run[0, count) are its
  // cells. A value with count >= 2 is the next dictionary entry; a
  // singleton is stored literally (code 0).
  template <typename Fn>
  void ForEachRun(Fn fn) const {
    const std::vector<SortedCell>& cells = *cells_;
    size_t i = 0;
    while (i < cells.size()) {
      size_t j = i + 1;
      while (j < cells.size() && cells[j].head == cells[i].head &&
             (width_ <= 8 || TailCompare(cells[i], cells[j]) == 0)) {
        ++j;
      }
      fn(FieldView(cell(cells[i].row) + anchor_len_, width_ - anchor_len_),
         &cells[i], j - i);
      i = j;
    }
  }

 private:
  const char* cell(size_t row) const { return data_ + row * width_; }

  // Compares the bytes past the eight-byte heads (widths > 8 only).
  int TailCompare(const SortedCell& a, const SortedCell& b) const {
    return std::memcmp(cell(a.row) + 8, cell(b.row) + 8, width_ - 8);
  }

  const char* data_;
  size_t width_;
  const std::vector<SortedCell>* cells_;
  size_t anchor_len_ = 0;
};

}  // namespace

// Blob layout:
//   varint n_rows
//   for each column:
//     varint anchor_len, anchor bytes
//     varint dict_count, dict entries (each: NS of the post-anchor remainder)
//     n_rows cells: varint code; code==0 -> literal NS remainder follows,
//                   code>=1  -> dictionary entry code-1.
std::string PageCodec::CompressPage(const FlatSpan& span) const {
  ValidateSpan(span);
  std::string blob;
  const size_t n = span.num_rows();
  PutVarint(n, &blob);
  std::vector<SortedCell> cells;
  std::vector<FieldView> dict;    // dictionary entries in id order
  std::vector<uint32_t> codes(n);  // per row: dictionary id + 1, or 0
  for (size_t c = 0; c < num_columns(); ++c) {
    const ColumnPlan plan(span, c, &cells);
    dict.clear();
    plan.ForEachRun([&](FieldView rem, const SortedCell* run, size_t count) {
      uint32_t code = 0;
      if (count >= 2) {
        dict.push_back(rem);
        code = static_cast<uint32_t>(dict.size());
      }
      for (size_t k = 0; k < count; ++k) codes[run[k].row] = code;
    });
    PutVarint(plan.anchor_len(), &blob);
    if (n > 0) blob.append(span.field(0, c).data(), plan.anchor_len());

    PutVarint(dict.size(), &blob);
    for (const FieldView rem : dict) NsCompressField(rem, &blob);

    for (size_t i = 0; i < n; ++i) {
      PutVarint(codes[i], &blob);
      if (codes[i] == 0) {
        NsCompressField(span.field(i, c).substr(plan.anchor_len()), &blob);
      }
    }
  }
  return blob;
}

uint64_t PageCodec::MeasurePage(const FlatSpan& span) const {
  ValidateSpan(span);
  const size_t n = span.num_rows();
  uint64_t total = VarintSize(n);
  std::vector<SortedCell> cells;  // the one scratch allocation
  cells.reserve(n);
  for (size_t c = 0; c < num_columns(); ++c) {
    const ColumnPlan plan(span, c, &cells);
    uint64_t dict_count = 0;
    uint64_t bytes = 0;  // dictionary entries plus cells
    plan.ForEachRun([&](FieldView rem, const SortedCell*, size_t count) {
      const uint64_t ns = NsFieldSize(rem);
      if (count == 1) {
        bytes += VarintSize(0) + ns;
      } else {
        ++dict_count;
        bytes += ns + count * VarintSize(dict_count);
      }
    });
    total += VarintSize(plan.anchor_len()) + plan.anchor_len() +
             VarintSize(dict_count) + bytes;
  }
  return total;
}

EncodedPage PageCodec::DecompressPage(std::string_view blob) const {
  size_t offset = 0;
  const uint64_t n = GetVarint(blob, &offset);
  EncodedPage page;
  page.rows.resize(n);
  for (auto& row : page.rows) row.resize(num_columns());
  std::vector<std::string> dict;  // reused across columns
  for (size_t c = 0; c < num_columns(); ++c) {
    const uint64_t anchor_len = GetVarint(blob, &offset);
    CAPD_CHECK_LE(offset + anchor_len, blob.size());
    const std::string_view anchor = blob.substr(offset, anchor_len);
    offset += anchor_len;
    const uint32_t rem_width = widths_[c] - static_cast<uint32_t>(anchor_len);

    const uint64_t dict_count = GetVarint(blob, &offset);
    dict.clear();
    dict.reserve(dict_count);
    for (uint64_t d = 0; d < dict_count; ++d) {
      std::string rem;
      rem.reserve(rem_width);
      NsDecompressField(blob, &offset, rem_width, &rem);
      dict.push_back(std::move(rem));
    }

    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t code = GetVarint(blob, &offset);
      std::string& field = page.rows[i][c];
      field.reserve(widths_[c]);
      field.assign(anchor);
      if (code == 0) {
        NsDecompressField(blob, &offset, rem_width, &field);
      } else {
        CAPD_CHECK_LE(code, dict.size());
        field.append(dict[code - 1]);
      }
    }
  }
  return page;
}

}  // namespace capd
