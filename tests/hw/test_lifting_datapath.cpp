#include "hw/lifting_datapath.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "dsp/dwt97_lifting_fixed.hpp"
#include "dsp/image_gen.hpp"
#include "hw/designs.hpp"
#include "hw/stream_runner.hpp"
#include "rtl/simulator.hpp"

namespace dwt::hw {
namespace {

std::vector<std::int64_t> image_samples(std::size_t n, std::uint64_t seed) {
  const dsp::Image img = dsp::make_still_tone_image(128, (n + 127) / 128, seed);
  std::vector<std::int64_t> out;
  out.reserve(n);
  for (const double v : img.data()) {
    if (out.size() == n) break;
    out.push_back(static_cast<std::int64_t>(std::llround(v)) - 128);
  }
  return out;
}

std::vector<std::int64_t> random_samples(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::int64_t> out(n);
  for (auto& v : out) v = rng.uniform(-128, 127);
  return out;
}

class AllDesignsBitTrue : public ::testing::TestWithParam<DesignId> {};

TEST_P(AllDesignsBitTrue, MatchesSoftwareModelOnImageData) {
  // Natural-image samples stay inside the paper's section-3.1 register
  // envelopes, so the paper-width hardware must match the software model
  // bit for bit.
  const BuiltDatapath dp = build_design(GetParam());
  rtl::Simulator sim(dp.netlist);
  const auto x = image_samples(128, 2005);
  const StreamResult hwres = run_stream(dp, sim, x);
  const auto swres = dsp::lifting97_forward_fixed_trace(
      x, dsp::LiftingFixedCoeffs::rounded(8));
  ASSERT_EQ(hwres.low.size(), swres.low.size());
  for (std::size_t i = 0; i < swres.low.size(); ++i) {
    EXPECT_EQ(hwres.low[i], swres.low[i]) << "low i=" << i;
    EXPECT_EQ(hwres.high[i], swres.high[i]) << "high i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Designs, AllDesignsBitTrue,
                         ::testing::Values(DesignId::kDesign1, DesignId::kDesign2,
                                           DesignId::kDesign3, DesignId::kDesign4,
                                           DesignId::kDesign5),
                         [](const auto& info) {
                           return design_spec(info.param).name.substr(0, 6) +
                                  std::to_string(static_cast<int>(info.param) + 1);
                         });

TEST(LiftingDatapath, IntervalWidthsAreExactOnRandomData) {
  // With interval-analysis sizing (no paper clamps), arbitrary 8-bit input
  // streams must match the software model exactly.
  DatapathConfig cfg = design_spec(DesignId::kDesign2).config;
  cfg.paper_widths = false;
  const BuiltDatapath dp = build_lifting_datapath(cfg);
  rtl::Simulator sim(dp.netlist);
  const auto x = random_samples(256, 7);
  const StreamResult hwres = run_stream(dp, sim, x);
  const auto swres =
      dsp::lifting97_forward_fixed_trace(x, dsp::LiftingFixedCoeffs::rounded(8));
  for (std::size_t i = 0; i < swres.low.size(); ++i) {
    EXPECT_EQ(hwres.low[i], swres.low[i]) << i;
    EXPECT_EQ(hwres.high[i], swres.high[i]) << i;
  }
}

TEST(LiftingDatapath, PaperWidthsClampOnAdversarialData) {
  // The paper sizes its high-pass output register for +/-252; adversarial
  // inputs exceed that and wrap -- the price of measurement-based sizing,
  // which natural images never pay.
  const BuiltDatapath dp = build_design(DesignId::kDesign2);
  rtl::Simulator sim(dp.netlist);
  // Uncorrelated full-scale samples push the high band past +/-252.
  const auto x = random_samples(256, 7);
  const StreamResult hwres = run_stream(dp, sim, x);
  const auto swres =
      dsp::lifting97_forward_fixed_trace(x, dsp::LiftingFixedCoeffs::rounded(8));
  bool any_wrap = false;
  for (std::size_t i = 0; i < swres.high.size(); ++i) {
    if (hwres.high[i] != swres.high[i]) any_wrap = true;
  }
  EXPECT_TRUE(any_wrap);
}

TEST(LiftingDatapath, EightStageSkeletonLatency) {
  for (const DesignId id :
       {DesignId::kDesign1, DesignId::kDesign2, DesignId::kDesign4}) {
    EXPECT_EQ(build_design(id).info.latency, 8) << design_spec(id).name;
  }
}

TEST(LiftingDatapath, PipelinedDesignsAreDeeper) {
  const int d3 = build_design(DesignId::kDesign3).info.latency;
  const int d5 = build_design(DesignId::kDesign5).info.latency;
  EXPECT_GT(d3, 20);
  EXPECT_EQ(d3, d5);  // same schedule, different adder realization
}

TEST(LiftingDatapath, StageRangesRecordPaperWidths) {
  const BuiltDatapath dp = build_design(DesignId::kDesign2);
  bool found_d1 = false;
  for (const StageRange& r : dp.info.stage_ranges) {
    if (r.name == "d1_after_alpha") {
      EXPECT_EQ(r.bits, 11);
      EXPECT_EQ(r.range.lo, -530);
      found_d1 = true;
    }
  }
  EXPECT_TRUE(found_d1);
}

TEST(LiftingDatapath, OutputPortWidthsMatchSection31) {
  const BuiltDatapath dp = build_design(DesignId::kDesign2);
  EXPECT_EQ(dp.out_low.width(), 10);   // +/-298 -> signed 10 bits
  EXPECT_EQ(dp.out_high.width(), 9);   // +/-252 -> signed 9 bits
}

TEST(LiftingDatapath, WiderInputsSupported) {
  DatapathConfig cfg;
  cfg.input_bits = 12;
  cfg.paper_widths = false;
  const BuiltDatapath dp = build_lifting_datapath(cfg);
  rtl::Simulator sim(dp.netlist);
  const auto base = random_samples(64, 9);
  std::vector<std::int64_t> x(base);
  for (auto& v : x) v *= 8;  // use the wider range
  const StreamResult hwres = run_stream(dp, sim, x);
  const auto swres =
      dsp::lifting97_forward_fixed_trace(x, dsp::LiftingFixedCoeffs::rounded(8));
  for (std::size_t i = 0; i < swres.low.size(); ++i) {
    EXPECT_EQ(hwres.low[i], swres.low[i]) << i;
  }
}

TEST(LiftingDatapath, RejectsInvalidConfig) {
  DatapathConfig cfg;
  cfg.input_bits = 0;
  EXPECT_THROW(build_lifting_datapath(cfg), std::invalid_argument);
  cfg.input_bits = 8;
  cfg.frac_bits = 0;
  EXPECT_THROW(build_lifting_datapath(cfg), std::invalid_argument);
}

TEST(LiftingDatapath, NetlistValidates) {
  for (const DesignSpec& spec : all_designs()) {
    EXPECT_NO_THROW(build_lifting_datapath(spec.config).netlist.validate())
        << spec.name;
  }
}

TEST(LiftingDatapath, TreeStructureAblationStillBitTrue) {
  DatapathConfig cfg = design_spec(DesignId::kDesign3).config;
  cfg.sum_structure = rtl::SumStructure::kTree;
  const BuiltDatapath dp = build_lifting_datapath(cfg);
  rtl::Simulator sim(dp.netlist);
  const auto x = image_samples(128, 77);
  const StreamResult hwres = run_stream(dp, sim, x);
  const auto swres =
      dsp::lifting97_forward_fixed_trace(x, dsp::LiftingFixedCoeffs::rounded(8));
  for (std::size_t i = 0; i < swres.low.size(); ++i) {
    EXPECT_EQ(hwres.low[i], swres.low[i]) << i;
  }
  // Trees are shallower than sequential chains.
  EXPECT_LT(dp.info.latency, build_design(DesignId::kDesign3).info.latency);
}

}  // namespace
}  // namespace dwt::hw
