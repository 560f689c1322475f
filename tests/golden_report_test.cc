// Golden-report regression tests (the PVLDB reproducibility norm of pinned
// expected outputs): the full rendered tuning report of each strategy ×
// workload pair must match the checked-in golden byte-for-byte. Everything
// in the report — costs, improvement, charged bytes, what-if/cost-cache
// counters, estimation statistics, recommended DDL — is deterministic
// under the fixed seeds, so any drift (an advisor change, a cost-model
// tweak, -O3 float divergence) fails loudly here instead of silently
// shifting recommendations.
//
// Regenerate after an intentional change with:
//   CAPD_UPDATE_GOLDEN=1 ./build/golden_report_test
// and review the tests/golden/ diff like any other code change.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "engine/advisor_engine.h"
#include "workloads/registry.h"

namespace capd {
namespace {

constexpr double kBudgetFrac = 0.15;

bool UpdateGoldenMode() {
  const char* env = std::getenv("CAPD_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

std::string GoldenPath(const std::string& name) {
  return std::string(CAPD_GOLDEN_DIR) + "/" + name + ".txt";
}

// Golden file tag -> registered strategy name.
std::string StrategyFor(const std::string& tag) {
  if (tag == "dtac_topk") return "dtac-topk";
  if (tag == "dtac_skyline") return "dtac-skyline";
  return "staged:page";
}

// One fresh AdvisorEngine per render (defaults keep the historical sample
// seed 4242); every seed is fixed so two builds of the same workload are
// byte-identical. The engine's shared caches stay on — the determinism
// contract says warmth never changes the rendered bytes, and these goldens
// are the proof pinned in CI.
struct GoldenStack {
  workloads::BuiltWorkload built;

  std::string Render(const std::string& tag) {
    AdvisorEngine engine(*built.db);
    TuningRequest request;
    request.workload = built.workload;
    request.strategy = StrategyFor(tag);
    request.budget = TuningBudget::Fraction(kBudgetFrac);
    const TuningResponse response = engine.Tune(request);
    EXPECT_TRUE(response.ok()) << response.error;
    return response.report;
  }
};

void BuildStack(const std::string& workload_name, GoldenStack* s) {
  workloads::WorkloadSpec spec;
  spec.name = workload_name;  // "tpcds" resolves via the registry alias
  spec.rows = 2000;
  std::string error;
  ASSERT_TRUE(workloads::Build(spec, &s->built, &error)) << error;
}

class GoldenReportTest
    : public ::testing::TestWithParam<std::tuple<const char*, const char*>> {
};

TEST_P(GoldenReportTest, ReportMatchesGoldenByteForByte) {
  const std::string workload_name = std::get<0>(GetParam());
  const std::string strategy = std::get<1>(GetParam());
  const std::string name = workload_name + "_" + strategy;

  GoldenStack stack;
  BuildStack(workload_name, &stack);
  const std::string report = stack.Render(strategy);
  ASSERT_FALSE(report.empty());

  const std::string path = GoldenPath(name);
  if (UpdateGoldenMode()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << report;
    std::fprintf(stderr, "[golden] updated %s\n", path.c_str());
    return;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — regenerate with CAPD_UPDATE_GOLDEN=1";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(report, expected.str())
      << "report drifted from " << path
      << " — if intentional, regenerate with CAPD_UPDATE_GOLDEN=1 and "
         "review the diff";
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAllWorkloads, GoldenReportTest,
    ::testing::Combine(::testing::Values("tpch", "sales", "tpcds", "scale"),
                       ::testing::Values("dtac_topk", "dtac_skyline",
                                         "staged")),
    [](const ::testing::TestParamInfo<GoldenReportTest::ParamType>& info) {
      return std::string(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param);
    });

// Rendering twice from independently built stacks must be byte-identical —
// the precondition for golden pinning (and a canary for any nondeterminism
// creeping into the advisor or the report renderer).
TEST(GoldenReportDeterminism, IndependentRunsRenderIdentically) {
  GoldenStack a;
  GoldenStack b;
  BuildStack("tpcds", &a);
  BuildStack("tpcds", &b);
  EXPECT_EQ(a.Render("dtac_skyline"), b.Render("dtac_skyline"));
  EXPECT_EQ(a.Render("staged"), b.Render("staged"));
}

}  // namespace
}  // namespace capd
