// Tests for the parallel batch-estimation engine and the cross-round
// estimation cache: parallel EstimateAll must be byte-identical to serial,
// and cached rounds must skip every SampleCF build they can while staying
// byte-identical to an uncached run.
#include <cstring>

#include <gtest/gtest.h>

#include "estimator/size_estimator.h"
#include "workloads/tpch.h"

namespace capd {
namespace {

class ParallelEstimationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::Options opt;
    opt.lineitem_rows = 6000;
    tpch::Build(&db_, opt);
  }

  IndexDef Idx(std::vector<std::string> keys,
               CompressionKind kind = CompressionKind::kRow) {
    IndexDef def;
    def.object = "lineitem";
    def.key_columns = std::move(keys);
    def.compression = kind;
    return def;
  }

  std::vector<IndexDef> Targets() {
    return {Idx({"l_shipdate"}),
            Idx({"l_shipmode"}),
            Idx({"l_shipdate", "l_shipmode"}),
            Idx({"l_shipdate", "l_shipmode", "l_quantity"}),
            Idx({"l_partkey", "l_suppkey"}),
            Idx({"l_quantity", "l_discount"}, CompressionKind::kPage),
            Idx({"l_partkey"}, CompressionKind::kPage)};
  }

  // Runs EstimateAll on a fresh SampleManager/estimator pair so every run
  // draws its own samples (per-key seeding makes them identical anyway).
  SizeEstimator::BatchResult RunBatch(SizeEstimationOptions options,
                                      uint64_t seed = 1234) {
    SampleManager samples(seed);
    TableSampleSource source(db_, &samples);
    SizeEstimator estimator(db_, &source, ErrorModel(), std::move(options));
    return estimator.EstimateAll(Targets());
  }

  static void ExpectBitIdentical(const SizeEstimator::BatchResult& a,
                                 const SizeEstimator::BatchResult& b) {
    ASSERT_EQ(a.estimates.size(), b.estimates.size());
    EXPECT_EQ(std::memcmp(&a.chosen_f, &b.chosen_f, sizeof(double)), 0);
    EXPECT_EQ(
        std::memcmp(&a.total_cost_pages, &b.total_cost_pages, sizeof(double)),
        0);
    EXPECT_EQ(a.num_sampled, b.num_sampled);
    EXPECT_EQ(a.num_deduced, b.num_deduced);
    auto ita = a.estimates.begin();
    auto itb = b.estimates.begin();
    for (; ita != a.estimates.end(); ++ita, ++itb) {
      EXPECT_EQ(ita->first, itb->first);
      // memcmp, not ==: the criterion is bit-identical doubles.
      EXPECT_EQ(std::memcmp(&ita->second, &itb->second, sizeof(SampleCfResult)),
                0)
          << ita->first;
    }
  }

  Database db_;
};

TEST_F(ParallelEstimationTest, ParallelEstimateAllBitIdenticalToSerial) {
  SizeEstimationOptions serial;
  const SizeEstimator::BatchResult base = RunBatch(serial);
  EXPECT_EQ(base.estimates.size(), Targets().size());

  for (int threads : {2, 4, 8}) {
    SizeEstimationOptions parallel;
    ThreadPool pool(threads);
    parallel.pool = &pool;
    ExpectBitIdentical(base, RunBatch(parallel));
  }
}

TEST_F(ParallelEstimationTest, ParallelIdenticalInNoDeductionMode) {
  SizeEstimationOptions serial;
  serial.use_deduction = false;
  const SizeEstimator::BatchResult base = RunBatch(serial);
  SizeEstimationOptions parallel = serial;
  ThreadPool pool(4);
  parallel.pool = &pool;
  ExpectBitIdentical(base, RunBatch(parallel));
}

TEST_F(ParallelEstimationTest, HardwareConcurrencyKnobWorks) {
  SizeEstimationOptions options;
  ThreadPool pool(0);  // hardware concurrency
  options.pool = &pool;
  const SizeEstimator::BatchResult r = RunBatch(options);
  EXPECT_EQ(r.estimates.size(), Targets().size());
}

TEST_F(ParallelEstimationTest, RepeatedRunsAreDeterministic) {
  // Same seed, fresh samples: estimates must be reproducible run to run
  // (per-key RNG seeding, not draw-order seeding).
  SizeEstimationOptions options;
  ThreadPool pool(4);
  options.pool = &pool;
  ExpectBitIdentical(RunBatch(options), RunBatch(options));
}

TEST_F(ParallelEstimationTest, CacheSkipsReEstimation) {
  auto cache = std::make_shared<EstimationCache>();
  SizeEstimationOptions options;
  options.cache = cache;

  SampleManager samples(1234);
  TableSampleSource source(db_, &samples);
  SizeEstimator estimator(db_, &source, ErrorModel(), options);

  const SizeEstimator::BatchResult cold = estimator.EstimateAll(Targets());
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_GT(cold.total_cost_pages, 0.0);
  EXPECT_GT(cold.num_sampled, 0u);
  // One entry per SampleCF leaf; deduced values are never cached.
  EXPECT_EQ(cache->size(), cold.num_sampled);
  const size_t entries = cache->size();

  // The warm batch serves every leaf from the cache and still plans, picks
  // the fraction and charges cost exactly as the cold one did.
  const SizeEstimator::BatchResult warm = estimator.EstimateAll(Targets());
  ExpectBitIdentical(cold, warm);
  EXPECT_EQ(warm.cache_hits, cold.num_sampled);
  EXPECT_EQ(cache->size(), entries);
}

TEST_F(ParallelEstimationTest, CachePartialHitEstimatesOnlyFreshTargets) {
  auto cache = std::make_shared<EstimationCache>();
  SizeEstimationOptions options;
  options.cache = cache;

  SampleManager samples(1234);
  TableSampleSource source(db_, &samples);
  SizeEstimator estimator(db_, &source, ErrorModel(), options);

  // Leaves priced by a smaller batch, possibly at another fraction, must
  // not steer the full batch's fraction search.
  const std::vector<IndexDef> warm = {Idx({"l_shipdate"}),
                                      Idx({"l_shipmode"})};
  estimator.EstimateAll(warm);
  const size_t warm_entries = cache->size();
  EXPECT_GT(warm_entries, 0u);

  const SizeEstimator::BatchResult batch = estimator.EstimateAll(Targets());
  const SizeEstimator::BatchResult uncached = RunBatch(SizeEstimationOptions());
  ExpectBitIdentical(uncached, batch);
  EXPECT_LE(batch.cache_hits, warm_entries);
  // Only the leaves the cache could not serve were built and inserted.
  EXPECT_EQ(cache->size(),
            warm_entries + batch.num_sampled - batch.cache_hits);
}

TEST_F(ParallelEstimationTest, CacheSharedAcrossEstimators) {
  auto cache = std::make_shared<EstimationCache>();
  SizeEstimationOptions options;
  options.cache = cache;

  SampleManager samples(1234);
  TableSampleSource source(db_, &samples);
  SizeEstimator::BatchResult cold;
  {
    SizeEstimator first(db_, &source, ErrorModel(), options);
    cold = first.EstimateAll(Targets());
  }
  const size_t entries = cache->size();
  SizeEstimator second(db_, &source, ErrorModel(), options);
  const SizeEstimator::BatchResult warm = second.EstimateAll(Targets());
  ExpectBitIdentical(cold, warm);
  EXPECT_EQ(warm.cache_hits, cold.num_sampled);
  EXPECT_EQ(cache->hits(), cold.num_sampled);
  EXPECT_EQ(cache->size(), entries);
}

TEST(EstimationCacheTest, LruEvictsLeastRecentlyUsed) {
  SampleCfResult r;
  r.est_bytes = 1.0;
  size_t per_entry = 0;  // same-length keys below
  {
    EstimationCache probe;
    probe.Insert("a", 0.01, r);
    per_entry = probe.charged_bytes();
  }
  EstimationCache cache(3 * per_entry);
  cache.Insert("a", 0.01, r);
  cache.Insert("b", 0.01, r);
  cache.Insert("c", 0.01, r);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Touch "a" so "b" becomes least recently used, then overflow.
  EXPECT_TRUE(cache.Lookup("a", 0.01).has_value());
  cache.Insert("d", 0.01, r);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.Lookup("b", 0.01).has_value());
  EXPECT_TRUE(cache.Lookup("a", 0.01).has_value());
  EXPECT_TRUE(cache.Lookup("c", 0.01).has_value());
  EXPECT_TRUE(cache.Lookup("d", 0.01).has_value());
}

TEST_F(ParallelEstimationTest, CacheCapacityOptionBoundsTheCache) {
  SizeEstimationOptions options;
  // A bound too small for even one entry: every insert is evicted again,
  // so the cache never grows — the extreme case of the memory bound.
  options.cache = std::make_shared<EstimationCache>(1);

  SampleManager samples(1234);
  TableSampleSource source(db_, &samples);
  SizeEstimator estimator(db_, &source, ErrorModel(), options);
  EXPECT_EQ(options.cache->capacity_bytes(), 1u);

  const SizeEstimator::BatchResult batch = estimator.EstimateAll(Targets());
  EXPECT_EQ(batch.estimates.size(), Targets().size());
  EXPECT_EQ(options.cache->size(), 0u);
  EXPECT_GT(options.cache->evictions(), 0u);
}

}  // namespace
}  // namespace capd
