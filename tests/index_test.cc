// Tests for index definitions and the physical index builder (ground-truth
// sizes the estimation framework is judged against).
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "compress/codec_factory.h"
#include "index/index_builder.h"

namespace capd {
namespace {

Table MakeTable(int n, uint64_t seed = 123) {
  Random rng(seed);
  Table t("t", Schema({{"a", ValueType::kInt64, 8},
                       {"b", ValueType::kString, 12},
                       {"c", ValueType::kInt64, 8},
                       {"d", ValueType::kDouble, 8}}));
  const char* kWords[] = {"red", "green", "blue"};
  for (int i = 0; i < n; ++i) {
    t.AddRow({Value::Int64(rng.Uniform(0, 20)),
              Value::String(kWords[rng.Next(3)]),
              Value::Int64(rng.Uniform(0, 1000000)),
              Value::Double(static_cast<double>(rng.Uniform(0, 10000)))});
  }
  return t;
}

IndexDef Idx(std::vector<std::string> keys, std::vector<std::string> includes = {},
             CompressionKind kind = CompressionKind::kNone) {
  IndexDef def;
  def.object = "t";
  def.key_columns = std::move(keys);
  def.include_columns = std::move(includes);
  def.compression = kind;
  return def;
}

TEST(IndexDefTest, StoredColumnsSecondary) {
  const Table t = MakeTable(10);
  const auto cols = Idx({"a"}, {"b"}).StoredColumns(t.schema());
  EXPECT_EQ(cols, (std::vector<std::string>{"a", "b"}));
}

TEST(IndexDefTest, StoredColumnsClusteredContainsAll) {
  const Table t = MakeTable(10);
  IndexDef def = Idx({"b"});
  def.clustered = true;
  const auto cols = def.StoredColumns(t.schema());
  EXPECT_EQ(cols.size(), 4u);
  EXPECT_EQ(cols[0], "b");  // key first
}

TEST(IndexDefTest, SignatureDistinguishesCompression) {
  const IndexDef a = Idx({"a"});
  const IndexDef b = Idx({"a"}, {}, CompressionKind::kRow);
  EXPECT_NE(a.Signature(), b.Signature());
  EXPECT_EQ(a.StructureSignature(), b.StructureSignature());
}

TEST(IndexDefTest, ColumnSetSignatureIgnoresOrder) {
  const Table t = MakeTable(5);
  const IndexDef ab = Idx({"a", "b"});
  const IndexDef ba = Idx({"b", "a"});
  EXPECT_EQ(ab.ColumnSetSignature(t.schema()), ba.ColumnSetSignature(t.schema()));
  EXPECT_NE(ab.StructureSignature(), ba.StructureSignature());
}

// Signatures key the estimation cache and appear in the goldens, so their
// bytes are frozen: any rendering change must keep every string below.
TEST(IndexDefTest, SignatureBytesAreFrozen) {
  const Table t = MakeTable(1);
  struct Case {
    IndexDef def;
    const char* structure;
    const char* column_set;
  };
  auto with = [](IndexDef def, bool clustered,
                 std::optional<ColumnFilter> filter) {
    def.clustered = clustered;
    def.filter = std::move(filter);
    return def;
  };
  auto filter = [](const char* column, FilterOp op, Value lo, Value hi = {}) {
    return ColumnFilter{column, op, std::move(lo), std::move(hi)};
  };
  const std::vector<Case> cases = {
      {Idx({"a", "b"}, {"c"}), "t|N|a,b,|c,", "t|N|a,b,c,"},
      {Idx({"c", "a"}), "t|N|c,a,|", "t|N|a,c,"},
      {with(Idx({"b"}), true, std::nullopt), "t|C|b,|", "t|C|a,b,c,d,"},
      {with(Idx({"b"}, {"d"}), true, std::nullopt), "t|C|b,|d,",
       "t|C|a,b,c,d,"},
      {with(Idx({"a"}), false, filter("a", FilterOp::kEq, Value::Int64(5))),
       "t|N|a,||F:a=5", "t|N|a,|F:a=5"},
      {with(Idx({"a"}, {"b"}), false,
            filter("a", FilterOp::kLt, Value::Int64(-7))),
       "t|N|a,|b,|F:a<-7", "t|N|a,b,|F:a<-7"},
      {with(Idx({"c"}), false, filter("c", FilterOp::kLe, Value::Date(19000))),
       "t|N|c,||F:c<=19000", "t|N|c,|F:c<=19000"},
      {with(Idx({"d"}), false, filter("d", FilterOp::kGt, Value::Double(2.5))),
       "t|N|d,||F:d>2.500000", "t|N|d,|F:d>2.500000"},
      {with(Idx({"b"}), true, filter("b", FilterOp::kGe, Value::String("m"))),
       "t|C|b,||F:b>=m", "t|C|a,b,c,d,|F:b>=m"},
      {with(Idx({"a"}, {"d"}), false,
            filter("a", FilterOp::kBetween, Value::Int64(3),
                   Value::Int64(9))),
       "t|N|a,|d,|F:a BETWEEN 3 AND 9", "t|N|a,d,|F:a BETWEEN 3 AND 9"},
      {with(Idx({"b"}), false,
            filter("b", FilterOp::kBetween, Value::String("blue"),
                   Value::String("red"))),
       "t|N|b,||F:b BETWEEN blue AND red", "t|N|b,|F:b BETWEEN blue AND red"},
  };
  const std::vector<std::pair<CompressionKind, const char*>> kinds = {
      {CompressionKind::kNone, "NONE"},
      {CompressionKind::kRow, "ROW(NS)"},
      {CompressionKind::kPage, "PAGE(LD)"},
      {CompressionKind::kGlobalDict, "GLOBAL_DICT"},
      {CompressionKind::kRle, "RLE"},
      {CompressionKind::kBitmap, "BITMAP"},
  };
  for (const Case& c : cases) {
    for (const auto& [kind, name] : kinds) {
      const IndexDef def = c.def.WithCompression(kind);
      EXPECT_EQ(def.StructureSignature(), c.structure);
      EXPECT_EQ(def.Signature(), std::string(c.structure) + "|" + name);
      EXPECT_EQ(def.ColumnSetSignature(t.schema()), c.column_set);
    }
  }
}

TEST(ColumnFilterTest, MatchOperators) {
  const Table t = MakeTable(1);
  const Row row = {Value::Int64(5), Value::String("red"), Value::Int64(0),
                   Value::Double(0)};
  ColumnFilter f{"a", FilterOp::kBetween, Value::Int64(3), Value::Int64(7)};
  EXPECT_TRUE(f.Matches(row, t.schema()));
  f = ColumnFilter{"a", FilterOp::kLt, Value::Int64(5), {}};
  EXPECT_FALSE(f.Matches(row, t.schema()));
  f = ColumnFilter{"a", FilterOp::kGe, Value::Int64(5), {}};
  EXPECT_TRUE(f.Matches(row, t.schema()));
  f = ColumnFilter{"b", FilterOp::kEq, Value::String("red"), {}};
  EXPECT_TRUE(f.Matches(row, t.schema()));
}

TEST(IndexBuilderTest, MaterializedRowsAreSortedByKey) {
  const Table t = MakeTable(500);
  IndexBuilder builder(t);
  const std::vector<Row> rows = builder.MaterializeRows(Idx({"a", "c"}));
  ASSERT_EQ(rows.size(), 500u);
  for (size_t i = 1; i < rows.size(); ++i) {
    const int c = rows[i - 1][0].Compare(rows[i][0]);
    EXPECT_LE(c, 0);
    if (c == 0) {
      EXPECT_LE(rows[i - 1][1].Compare(rows[i][1]), 0);
    }
  }
}

TEST(IndexBuilderTest, SecondaryCarriesRowLocator) {
  const Table t = MakeTable(10);
  IndexBuilder builder(t);
  const Schema stored = builder.StoredSchema(Idx({"a"}));
  EXPECT_EQ(stored.column(stored.num_columns() - 1).name, "__rowid");
}

TEST(IndexBuilderTest, ClusteredHasNoLocator) {
  const Table t = MakeTable(10);
  IndexBuilder builder(t);
  IndexDef def = Idx({"a"});
  def.clustered = true;
  const Schema stored = builder.StoredSchema(def);
  EXPECT_FALSE(stored.HasColumn("__rowid"));
  EXPECT_EQ(stored.num_columns(), 4u);
}

TEST(IndexBuilderTest, PartialIndexFiltersRows) {
  const Table t = MakeTable(1000);
  IndexBuilder builder(t);
  IndexDef def = Idx({"a"});
  def.filter = ColumnFilter{"a", FilterOp::kLt, Value::Int64(5), {}};
  const IndexPhysical phys = builder.Build(def);
  EXPECT_LT(phys.tuples, 500u);
  EXPECT_GT(phys.tuples, 50u);
}

TEST(IndexBuilderTest, CompressionShrinksCompressibleIndex) {
  const Table t = MakeTable(3000);
  IndexBuilder builder(t);
  // Column "a" has 21 distinct small ints and "b" three short strings: very
  // compressible under both ROW and PAGE.
  for (CompressionKind kind : {CompressionKind::kRow, CompressionKind::kPage}) {
    const double cf = builder.TrueCompressionFraction(Idx({"a", "b"}, {}, kind));
    EXPECT_LT(cf, 0.8) << CompressionKindName(kind);
    EXPECT_GT(cf, 0.05);
  }
}

TEST(IndexBuilderTest, RandomWideColumnCompressesWorse) {
  const Table t = MakeTable(3000);
  IndexBuilder builder(t);
  const double cf_narrow =
      builder.TrueCompressionFraction(Idx({"a"}, {}, CompressionKind::kRow));
  const double cf_wide =
      builder.TrueCompressionFraction(Idx({"c"}, {}, CompressionKind::kRow));
  EXPECT_LT(cf_narrow, cf_wide);  // small ints compress better than random
}

TEST(IndexBuilderTest, OrdIndSizeEqualForPermutedKeys) {
  const Table t = MakeTable(2000);
  IndexBuilder builder(t);
  const IndexPhysical ab =
      builder.Build(Idx({"a", "b"}, {}, CompressionKind::kRow));
  const IndexPhysical ba =
      builder.Build(Idx({"b", "a"}, {}, CompressionKind::kRow));
  // ORD-IND: identical column set => identical size (the ColSet axiom).
  EXPECT_EQ(ab.total_pages(), ba.total_pages());
}

TEST(IndexBuilderTest, OrdDepSizeDiffersForPermutedKeys) {
  // Make a table where order matters strongly: column x has long runs when
  // leading, fragmented when trailing.
  Random rng(9);
  Table t("t", Schema({{"x", ValueType::kString, 16}, {"y", ValueType::kInt64, 8}}));
  for (int i = 0; i < 4000; ++i) {
    t.AddRow({Value::String("group_" + std::to_string(i % 4)),
              Value::Int64(rng.Uniform(0, 1000000))});
  }
  IndexBuilder builder(t);
  IndexDef xy;
  xy.object = "t";
  xy.key_columns = {"x", "y"};
  xy.compression = CompressionKind::kRle;
  IndexDef yx = xy;
  yx.key_columns = {"y", "x"};
  const IndexPhysical phys_xy = builder.Build(xy);
  const IndexPhysical phys_yx = builder.Build(yx);
  EXPECT_NE(phys_xy.total_pages(), phys_yx.total_pages());
  // x leading -> runs of x collapse under RLE -> smaller.
  EXPECT_LT(phys_xy.total_pages(), phys_yx.total_pages());
}

TEST(IndexBuilderTest, EmptyTableStillOnePage) {
  Table t("t", Schema({{"a", ValueType::kInt64, 8}}));
  IndexBuilder builder(t);
  IndexDef def;
  def.object = "t";
  def.key_columns = {"a"};
  EXPECT_EQ(builder.Build(def).data_pages, 1u);
}

TEST(PackPagesTest, EveryPageBlobFitsCapacity) {
  // Indirect check: pack, then verify the builder's page count is at least
  // bytes/capacity (no page can hold more than capacity).
  const Table t = MakeTable(5000);
  IndexBuilder builder(t);
  const IndexDef def = Idx({"a", "b", "c"}, {}, CompressionKind::kPage);
  const std::vector<Row> rows = builder.MaterializeRows(def);
  const Schema stored = builder.StoredSchema(def);
  std::unique_ptr<Codec> codec = MakeCodec(def.compression, stored, rows);
  const std::string whole =
      codec->CompressPage(EncodeRows(rows, stored, 0, rows.size()));
  const PackResult packed = PackPages(rows, stored, *codec);
  EXPECT_GE(packed.pages, whole.size() / kPageCapacity);
  // And packing cannot be catastrophically wasteful either (pages are at
  // least half full on average for smooth data like this).
  EXPECT_LE(packed.pages, 2 * whole.size() / kPageCapacity + 2);
  EXPECT_GT(packed.payload_bytes, 0u);
  EXPECT_LE(packed.payload_bytes, packed.pages * kPageCapacity);
}

TEST(PackPagesTest, GlobalDictOverheadCounted) {
  const Table t = MakeTable(2000);
  IndexBuilder builder(t);
  const IndexPhysical phys =
      builder.Build(Idx({"c"}, {}, CompressionKind::kGlobalDict));
  EXPECT_GT(phys.overhead_bytes, 0u);  // ~2000 distinct c values stored once
  EXPECT_GT(phys.total_pages(), phys.data_pages);
}

}  // namespace
}  // namespace capd
