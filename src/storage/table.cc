#include "storage/table.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace capd {

Table::Table(std::string name, Schema schema, uint64_t num_rows,
             std::shared_ptr<const BlockSource> source, uint64_t block_rows)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      source_(std::move(source)),
      generated_rows_(num_rows),
      block_rows_(block_rows) {
  CAPD_CHECK(source_ != nullptr) << "table " << name_;
  CAPD_CHECK_GT(block_rows_, 0u);
}

const std::vector<Row>& Table::rows() const {
  CAPD_CHECK(materialized())
      << "table " << name_
      << " is generated; use ScanRows/CollectRows or Materialize()";
  return rows_;
}

void Table::AddRow(Row row) {
  CAPD_CHECK(materialized()) << "table " << name_;
  CAPD_CHECK_EQ(row.size(), schema_.num_columns()) << "table " << name_;
  rows_.push_back(std::move(row));
}

void Table::ScanRows(
    const std::function<void(uint64_t, const Row&)>& fn) const {
  if (materialized()) {
    for (uint64_t i = 0; i < rows_.size(); ++i) fn(i, rows_[i]);
    return;
  }
  ColumnBlock block(schema_);
  Row scratch;
  const uint64_t n = num_rows();
  for (uint64_t b = 0; b < num_blocks(); ++b) {
    const uint64_t first = b * block_rows_;
    const uint64_t count = std::min(block_rows_, n - first);
    block.Reset(first);
    source_->FillBlock(b, first, count, RowPicks(), &block);
    CAPD_CHECK_EQ(block.num_rows(), count)
        << "table " << name_ << " block " << b;
    for (uint64_t r = 0; r < count; ++r) {
      block.RowAt(r, &scratch);
      fn(first + r, scratch);
    }
  }
}

std::vector<Row> Table::CollectRows(
    const std::vector<uint64_t>& sorted_indices) const {
  std::vector<Row> out;
  out.reserve(sorted_indices.size());
  if (materialized()) {
    for (uint64_t idx : sorted_indices) {
      CAPD_CHECK_LT(idx, rows_.size()) << "table " << name_;
      out.push_back(rows_[idx]);
    }
    return out;
  }
  const uint64_t n = num_rows();
  const uint64_t* const picks = sorted_indices.data();
  ColumnBlock block(schema_);
  size_t i = 0;
  while (i < sorted_indices.size()) {
    CAPD_CHECK_LT(picks[i], n) << "table " << name_;
    const uint64_t b = picks[i] / block_rows_;
    const uint64_t first = b * block_rows_;
    const uint64_t count = std::min(block_rows_, n - first);
    // This block's slice of the picks is [i, end).
    size_t end = i + 1;
    uint64_t distinct = 1;
    for (; end < sorted_indices.size() && picks[end] < first + count; ++end) {
      CAPD_CHECK_GE(picks[end], picks[end - 1])
          << "indices must be sorted ascending";
      if (picks[end] != picks[end - 1]) ++distinct;
    }
    block.Reset(first);
    source_->FillBlock(b, first, count, RowPicks(picks + i, picks + end),
                       &block);
    CAPD_CHECK_EQ(block.num_rows(), distinct)
        << "table " << name_ << " block " << b;
    uint64_t r = 0;  // block row of picks[k]; a repeated pick reuses it
    for (size_t k = i; k < end; ++k) {
      if (k > i && picks[k] != picks[k - 1]) ++r;
      out.emplace_back();
      block.RowAt(r, &out.back());
    }
    i = end;
  }
  return out;
}

std::unique_ptr<Table> Table::Materialize(ThreadPool* pool) const {
  auto out = std::make_unique<Table>(name_, schema_);
  out->Reserve(num_rows());
  if (materialized()) {
    for (const Row& r : rows_) out->AddRow(r);
    return out;
  }
  const uint64_t n = num_rows();
  const uint64_t blocks = num_blocks();
  // Each block is generated independently from its own seed, so the fan-out
  // is embarrassingly parallel and the block-order splice below makes the
  // result identical at any thread count.
  std::vector<std::vector<Row>> per_block(blocks);
  ParallelFor(pool, blocks, [&](size_t b) {
    const uint64_t first = static_cast<uint64_t>(b) * block_rows_;
    const uint64_t count = std::min(block_rows_, n - first);
    ColumnBlock block(schema_);
    block.Reset(first);
    source_->FillBlock(b, first, count, RowPicks(), &block);
    CAPD_CHECK_EQ(block.num_rows(), count)
        << "table " << name_ << " block " << b;
    std::vector<Row>& rows = per_block[b];
    rows.reserve(count);
    Row scratch;
    for (uint64_t r = 0; r < count; ++r) {
      block.RowAt(r, &scratch);
      rows.push_back(scratch);
    }
  });
  for (std::vector<Row>& rows : per_block) {
    for (Row& r : rows) out->AddRow(std::move(r));
  }
  return out;
}

uint64_t Table::HeapPages() const {
  const uint64_t row_bytes = schema_.RowWidth() + kRowOverhead;
  const uint64_t rows_per_page = kPageCapacity / row_bytes;
  CAPD_CHECK_GT(rows_per_page, 0u) << "row wider than a page";
  return (num_rows() + rows_per_page - 1) / rows_per_page;
}

}  // namespace capd
