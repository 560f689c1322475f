// Determinism tests for the parallel advisor search loop: Advisor::Tune
// with enumeration fanned across 2/4/8 threads — and with the
// per-statement cost cache on or off — must reproduce the serial,
// uncached result to the bit (same guarantee the estimation engine gives).
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "workloads/tpch.h"

namespace capd {
namespace {

class ParallelEnumerationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::Options opt;
    opt.lineitem_rows = 4000;
    tpch::Build(&db_, opt);
    workload_ = tpch::MakeWorkload(db_, opt);
  }

  // Fresh stack per run (samples re-drawn; per-key seeding makes them
  // identical), mirroring bench_common's wiring.
  AdvisorResult Tune(AdvisorOptions options, double budget_frac) {
    SampleManager samples(4242);
    MVRegistry mvs(db_, &samples);
    WhatIfOptimizer optimizer(db_, CostModelParams{});
    optimizer.set_mv_matcher(&mvs);
    SizeEstimator estimator(db_, &mvs, ErrorModel(), options.size_options);
    Advisor advisor(db_, optimizer, &estimator, &mvs, options);
    return advisor.Tune(workload_,
                        budget_frac * static_cast<double>(db_.BaseDataBytes()));
  }

  static void ExpectBitIdentical(const AdvisorResult& a,
                                 const AdvisorResult& b) {
    // memcmp, not ==: the criterion is bit-identical doubles.
    EXPECT_EQ(std::memcmp(&a.initial_cost, &b.initial_cost, sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&a.final_cost, &b.final_cost, sizeof(double)), 0);
    EXPECT_EQ(
        std::memcmp(&a.charged_bytes, &b.charged_bytes, sizeof(double)), 0);
    ASSERT_EQ(a.config.size(), b.config.size());
    const auto& ia = a.config.indexes();
    const auto& ib = b.config.indexes();
    for (size_t i = 0; i < ia.size(); ++i) {
      EXPECT_EQ(ia[i].def.Signature(), ib[i].def.Signature()) << i;
      EXPECT_EQ(std::memcmp(&ia[i].bytes, &ib[i].bytes, sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(&ia[i].tuples, &ib[i].tuples, sizeof(double)), 0);
    }
  }

  Database db_;
  Workload workload_;
};

TEST_F(ParallelEnumerationTest, CostCacheDoesNotChangeTheResult) {
  AdvisorOptions uncached = AdvisorOptions::DTAcBoth();
  uncached.cost_cache = false;
  AdvisorOptions cached = AdvisorOptions::DTAcBoth();
  cached.cost_cache = true;
  for (double budget : {0.05, 0.25}) {
    const AdvisorResult base = Tune(uncached, budget);
    const AdvisorResult r = Tune(cached, budget);
    ExpectBitIdentical(base, r);
    EXPECT_GT(r.stmt_costs_cached, 0u);
    // Same logical what-if traffic either way; the cache only changes how
    // many costings actually ran the optimizer.
    EXPECT_EQ(base.what_if_calls, r.what_if_calls);
    EXPECT_LT(r.stmt_costs_computed, base.stmt_costs_computed);
  }
}

TEST_F(ParallelEnumerationTest, ParallelEnumerateBitIdenticalToSerial) {
  AdvisorOptions serial = AdvisorOptions::DTAcBoth();
  serial.cost_cache = false;
  const AdvisorResult base = Tune(serial, 0.08);

  for (int threads : {2, 4, 8}) {
    for (bool cache : {false, true}) {
      AdvisorOptions parallel = AdvisorOptions::DTAcBoth();
      parallel.cost_cache = cache;
      ThreadPool pool(threads);
      parallel.pool = &pool;
      ExpectBitIdentical(base, Tune(parallel, 0.08));
    }
  }
}

TEST_F(ParallelEnumerationTest, DensityGreedyParallelMatchesSerial) {
  AdvisorOptions serial = AdvisorOptions::DTAcBoth();
  serial.enumeration = EnumerationMode::kDensityGreedy;
  serial.cost_cache = false;
  const AdvisorResult base = Tune(serial, 0.05);

  AdvisorOptions parallel = serial;
  parallel.cost_cache = true;
  ThreadPool pool(4);
  parallel.pool = &pool;
  ExpectBitIdentical(base, Tune(parallel, 0.05));
}

// The search runs on interned candidate ids. These goldens were recorded
// from the signature-keyed search it replaced (DTAcBoth, so backtracking is
// on and recovers oversized picks at these budgets): the design, its costs
// and every what-if counter must stay exactly as they were, at any thread
// count.
TEST_F(ParallelEnumerationTest, InternedSearchMatchesGoldens) {
  struct Golden {
    double budget_frac;
    double final_cost;
    double charged_bytes;
    size_t what_if_calls;
    size_t stmt_costs_computed;
    size_t stmt_costs_cached;
    std::vector<std::pair<const char*, double>> design;
  };
  const char* const kClusteredShipdate = "lineitem|C|l_shipdate,||ROW(NS)";
  const char* const kQuantityNone =
      "lineitem|N|l_quantity,|l_extendedprice,l_partkey,|NONE";
  const char* const kQuantityRow =
      "lineitem|N|l_quantity,|l_extendedprice,l_partkey,|ROW(NS)";
  const char* const kReturnflag =
      "lineitem|N|l_returnflag,l_linestatus,|l_shipdate,l_quantity,"
      "l_extendedprice,l_orderkey,|NONE";
  const char* const kReceiptdateNone =
      "lineitem|N|l_receiptdate,l_linestatus,|l_suppkey,|NONE";
  const char* const kReceiptdateRow =
      "lineitem|N|l_receiptdate,l_linestatus,|l_suppkey,|ROW(NS)";
  const char* const kClusteredPart = "part|C|p_size,||ROW(NS)";
  const char* const kPartSize = "part|N|p_size,|p_brand,|NONE";
  const std::vector<Golden> goldens = {
      {0.00, 0x1.69f15baa19077p+9, -0x1.5d0b202b2ea8cp+14, 20700, 3208, 17514,
       {{kClusteredShipdate, 0x1.eda9d4155fdefp+17},
        {kQuantityNone, 0x1.09ap+17},
        {kClusteredPart, 0x1.7d48d53d5cd31p+12},
        {kReceiptdateRow, 0x1.c56a04ed3d958p+15},
        {kPartSize, 0x1.fap+12}}},
      {0.10, 0x1.5f341382cab07p+9, 0x1.460fd0e092c7cp+15, 20796, 3596, 17222,
       {{kClusteredShipdate, 0x1.eda9d4155fdefp+17},
        {kReturnflag, 0x1.57cp+17},
        {kQuantityRow, 0x1.40bfb2f1b3d8dp+16},
        {kClusteredPart, 0x1.7d48d53d5cd31p+12},
        {kPartSize, 0x1.fap+12}}},
      {0.20, 0x1.591bbbf149a2ep+9, 0x1.7588357e958b1p+16, 20820, 3479, 17363,
       {{kClusteredShipdate, 0x1.eda9d4155fdefp+17},
        {kQuantityNone, 0x1.09ap+17},
        {kReturnflag, 0x1.57cp+17},
        {kClusteredPart, 0x1.7d48d53d5cd31p+12},
        {kPartSize, 0x1.fap+12}}},
      {0.40, 0x1.50dc61e583774p+9, 0x1.8db41abf4ac59p+17, 23412, 3582, 19852,
       {{kClusteredShipdate, 0x1.eda9d4155fdefp+17},
        {kQuantityNone, 0x1.09ap+17},
        {kReturnflag, 0x1.57cp+17},
        {kReceiptdateNone, 0x1.a5ep+16},
        {kClusteredPart, 0x1.7d48d53d5cd31p+12},
        {kPartSize, 0x1.fap+12}}},
  };

  for (const Golden& golden : goldens) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("budget=" + std::to_string(golden.budget_frac) +
                   " threads=" + std::to_string(threads));
      AdvisorOptions options = AdvisorOptions::DTAcBoth();
      ASSERT_TRUE(options.backtracking);
      ThreadPool pool(threads);
      options.pool = &pool;
      const AdvisorResult r = Tune(options, golden.budget_frac);
      // memcmp, not ==: the criterion is bit-identical doubles.
      EXPECT_EQ(
          std::memcmp(&r.final_cost, &golden.final_cost, sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(&r.charged_bytes, &golden.charged_bytes,
                            sizeof(double)),
                0);
      EXPECT_EQ(r.what_if_calls, golden.what_if_calls);
      EXPECT_EQ(r.stmt_costs_computed, golden.stmt_costs_computed);
      EXPECT_EQ(r.stmt_costs_cached, golden.stmt_costs_cached);
      ASSERT_EQ(r.config.size(), golden.design.size());
      for (size_t i = 0; i < golden.design.size(); ++i) {
        EXPECT_EQ(r.config.indexes()[i].def.Signature(),
                  golden.design[i].first)
            << i;
        EXPECT_EQ(std::memcmp(&r.config.indexes()[i].bytes,
                              &golden.design[i].second, sizeof(double)),
                  0)
            << i;
      }
    }
  }
}

TEST_F(ParallelEnumerationTest, HardwareConcurrencyKnobWorks) {
  AdvisorOptions options = AdvisorOptions::DTAcBoth();
  ThreadPool pool(0);  // hardware concurrency
  options.pool = &pool;
  const AdvisorResult r = Tune(options, 0.10);
  EXPECT_GT(r.what_if_calls, 0u);
}

}  // namespace
}  // namespace capd
