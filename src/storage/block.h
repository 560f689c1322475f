// Blocked columnar storage. A ColumnBlock holds a fixed-size run of rows
// column-major (struct-of-arrays); a BlockSource generates the rows of one
// block on demand from a per-block seed. Together they let Table expose
// 10^7-10^8-row datasets that are scanned one block at a time — peak memory
// is O(block), never O(table) — while staying bit-deterministic: block b's
// contents depend only on (table seed, b), not on scan order or thread
// count.
#ifndef CAPD_STORAGE_BLOCK_H_
#define CAPD_STORAGE_BLOCK_H_

#include <cstdint>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"

namespace capd {

// Rows per generated block. Small enough that one resident block of a wide
// schema stays in the low megabytes, large enough to amortize per-block
// generator setup.
inline constexpr uint64_t kDefaultBlockRows = 8192;

// One block of rows in columnar (struct-of-arrays) layout. Reused as a
// scratch buffer across blocks by scanning code: Reset() keeps the per
// column capacity so a long scan settles into zero steady-state
// allocation churn.
class ColumnBlock {
 public:
  explicit ColumnBlock(const Schema& schema);

  // Clears the block and pins the global index of its first row.
  void Reset(uint64_t first_row);

  // Appends one row (must match the schema's column count).
  void AppendRow(const Row& row);

  uint64_t first_row() const { return first_row_; }
  uint64_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return cols_.size(); }

  // Value of column `c` in the block-local row `r`.
  const Value& value(size_t c, uint64_t r) const { return cols_[c][r]; }

  // Reconstructs block-local row `r` into *out (cleared first). Taking a
  // scratch Row lets tight scan loops reuse one allocation.
  void RowAt(uint64_t r, Row* out) const;

 private:
  uint64_t first_row_ = 0;
  uint64_t num_rows_ = 0;
  std::vector<std::vector<Value>> cols_;  // cols_[column][row]
};

// The rows of one block that a FillBlock call appends: every row, or only
// those in an ascending slice [begin, end) of global row indices (a
// repeated index still appends its row once).
class RowPicks {
 public:
  // Every row.
  RowPicks() = default;
  RowPicks(const uint64_t* begin, const uint64_t* end)
      : next_(begin), end_(end), all_(false) {}

  // Whether global row `row` is appended. A source asks once per row of
  // the block, in ascending order.
  bool Take(uint64_t row) {
    if (all_) return true;
    if (next_ == end_ || *next_ != row) return false;
    while (next_ != end_ && *next_ == row) ++next_;
    return true;
  }

 private:
  const uint64_t* next_ = nullptr;
  const uint64_t* end_ = nullptr;
  bool all_ = true;
};

// Generates the rows of one block. Implementations MUST be deterministic
// per block — FillBlock(b, ...) always produces the identical rows for a
// given source, typically by seeding a fresh Random with
// BlockSeed(table_seed, b) — and thread-safe for concurrent FillBlock
// calls on distinct blocks (parallel materialization fans blocks across a
// ThreadPool).
class BlockSource {
 public:
  virtual ~BlockSource() = default;

  // Generates the `count` rows with global indices [first_row,
  // first_row+count) and appends, in order, those that `picks` takes to
  // *out, which has been Reset(first_row). A row's bytes must not depend
  // on which rows are picked: draw every row, build only the picked ones.
  virtual void FillBlock(uint64_t block_index, uint64_t first_row,
                         uint64_t count, RowPicks picks,
                         ColumnBlock* out) const = 0;
};

// splitmix64 mix of (seed, block): decorrelates per-block RNG streams so
// neighboring blocks do not see shifted copies of one stream.
uint64_t BlockSeed(uint64_t seed, uint64_t block_index);

}  // namespace capd

#endif  // CAPD_STORAGE_BLOCK_H_
