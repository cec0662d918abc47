#include "explore/explorer.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace dwt::explore {
namespace {

/// The evaluations are expensive enough to share across assertions.
class ExplorerSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    evals_ = new std::vector<DesignEvaluation>(Explorer().evaluate_all());
  }
  static void TearDownTestSuite() {
    delete evals_;
    evals_ = nullptr;
  }
  static const std::vector<DesignEvaluation>& evals() { return *evals_; }

 private:
  static std::vector<DesignEvaluation>* evals_;
};

std::vector<DesignEvaluation>* ExplorerSuite::evals_ = nullptr;

TEST_F(ExplorerSuite, EvaluatesAllFiveDesigns) {
  ASSERT_EQ(evals().size(), 5u);
  for (const DesignEvaluation& e : evals()) {
    EXPECT_GT(e.report.logic_elements, 100u) << e.spec.name;
    EXPECT_GT(e.report.fmax_mhz, 5.0) << e.spec.name;
    EXPECT_GT(e.report.power_mw, 10.0) << e.spec.name;
  }
}

TEST_F(ExplorerSuite, Design2IsSmallest) {
  for (std::size_t i = 0; i < evals().size(); ++i) {
    if (i == 1) continue;
    EXPECT_LE(evals()[1].report.logic_elements,
              evals()[i].report.logic_elements)
        << evals()[i].spec.name;
  }
}

TEST_F(ExplorerSuite, PipelinedDesignsAreFastest) {
  // Paper Table 3: designs 3 and 5 dominate the frequency column.
  const double d3 = evals()[2].report.fmax_mhz;
  const double d5 = evals()[4].report.fmax_mhz;
  for (const std::size_t flat : {0u, 1u, 3u}) {
    EXPECT_GT(d3, 1.5 * evals()[flat].report.fmax_mhz);
    EXPECT_GT(d5, 1.5 * evals()[flat].report.fmax_mhz);
  }
  EXPECT_GT(d3, d5);  // carry chains beat LUT ripple per stage
}

TEST_F(ExplorerSuite, PipelinedDesignsUseLessPowerAtReference) {
  EXPECT_LT(evals()[2].report.power_mw, evals()[1].report.power_mw);  // D3 < D2
  EXPECT_LT(evals()[4].report.power_mw, evals()[3].report.power_mw);  // D5 < D4
  EXPECT_LT(evals()[4].report.power_mw, evals()[2].report.power_mw);  // D5 lowest
}

TEST_F(ExplorerSuite, Design1DrawsTheMostPower) {
  for (std::size_t i = 1; i < evals().size(); ++i) {
    if (i == 3) continue;  // D4: our model charges structural LUT nets more
                           // than Quartus did (documented deviation)
    EXPECT_GT(evals()[0].report.power_mw, evals()[i].report.power_mw)
        << evals()[i].spec.name;
  }
}

TEST_F(ExplorerSuite, StageCountsMatchSkeleton) {
  EXPECT_EQ(evals()[0].report.pipeline_stages, 8);
  EXPECT_EQ(evals()[1].report.pipeline_stages, 8);
  EXPECT_EQ(evals()[3].report.pipeline_stages, 8);
  EXPECT_GT(evals()[2].report.pipeline_stages, 20);
  EXPECT_GT(evals()[4].report.pipeline_stages, 20);
}

TEST_F(ExplorerSuite, GlitchActivityLowerWhenPipelined) {
  EXPECT_LT(evals()[2].report.mean_activity, evals()[1].report.mean_activity);
  EXPECT_LT(evals()[4].report.mean_activity, evals()[3].report.mean_activity);
}

TEST_F(ExplorerSuite, PowerProjectionScalesWithFrequency) {
  const auto& e = evals()[1];
  const auto p40 = e.power_at(40.0, fpga::ApexDeviceParams::apex20ke());
  EXPECT_GT(p40.total_mw(), e.report.power_mw);
  EXPECT_NEAR(p40.logic_mw, e.report.power_breakdown.logic_mw * 40.0 / 15.0,
              1e-6);
}

TEST_F(ExplorerSuite, ChainLesOnlyInBehavioralDesigns) {
  EXPECT_GT(evals()[1].report.chain_les, 0u);
  EXPECT_EQ(evals()[3].report.chain_les, 0u);
  EXPECT_EQ(evals()[4].report.chain_les, 0u);
}

TEST(Explorer, PrefixAdderVariantShiftsTheFrontier) {
  // Spot-check of the (design x adder) sweep: the kogge-stone variant of
  // the pipelined design trades area for clock rate -- more LEs than the
  // paper realization, but a higher f_max (the prefix network shortens the
  // adder stage the STA critical path runs through).
  const Explorer ex;
  const auto variants = hw::adder_variant_designs();
  ASSERT_EQ(variants.size(), 12u);
  const auto ks_it =
      std::find_if(variants.begin(), variants.end(), [](const auto& s) {
        return s.name == "Design 3 (kogge-stone)";
      });
  ASSERT_NE(ks_it, variants.end());
  const DesignEvaluation base = ex.evaluate(hw::design_spec(hw::DesignId::kDesign3));
  const DesignEvaluation ks = ex.evaluate(*ks_it);
  EXPECT_EQ(ks.report.name, "Design 3 (kogge-stone)");
  EXPECT_GT(ks.report.fmax_mhz, base.report.fmax_mhz);
  EXPECT_GT(ks.report.logic_elements, base.report.logic_elements);
  // Same stage skeleton: the adder swap is purely combinational.
  EXPECT_EQ(ks.report.pipeline_stages, base.report.pipeline_stages);
}

TEST(Explorer, WorkloadStreamsAreDeterministic) {
  const Explorer ex;
  EXPECT_EQ(ex.workload_stream(), ex.workload_stream());
  EXPECT_EQ(ex.workload_stream().size(), 2048u);
}

TEST(Explorer, WorkloadFitsSignedEightBits) {
  for (const std::int64_t v : Explorer().workload_stream()) {
    EXPECT_GE(v, -128);
    EXPECT_LE(v, 127);
  }
}

}  // namespace
}  // namespace dwt::explore
