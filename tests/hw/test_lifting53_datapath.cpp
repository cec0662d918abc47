#include "hw/lifting53_datapath.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dsp/lifting_ladder.hpp"
#include "fpga/tech_mapper.hpp"
#include "hw/designs.hpp"
#include "hw/stream_runner.hpp"
#include "rtl/simplify.hpp"
#include "rtl/simulator.hpp"
#include "support/lines.hpp"

namespace dwt::hw {
namespace {

std::vector<std::int64_t> random_samples(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::int64_t> x(n);
  for (auto& v : x) v = rng.uniform(-128, 127);
  return x;
}

struct Case {
  rtl::AdderStyle style;
  bool pipelined;
};

class Lifting53BitTrue : public ::testing::TestWithParam<Case> {};

TEST_P(Lifting53BitTrue, MatchesSoftwareOnRandomData) {
  // The 5/3 core is sized by interval analysis (no measurement clamps), so
  // arbitrary 8-bit data must reproduce the software model bit for bit.
  Datapath53Config cfg;
  cfg.adder_style = GetParam().style;
  cfg.pipelined_operators = GetParam().pipelined;
  const BuiltDatapath53 dp = build_lifting53_datapath(cfg);
  rtl::Simulator sim(dp.netlist);
  const auto x = random_samples(256, 5);
  const StreamResult hwres = run_stream53(dp, sim, x);
  const auto swres = test::forward_bands(
      dsp::LiftingLadder(dsp::reversible53_steps(), false), x);
  for (std::size_t i = 0; i < swres.low.size(); ++i) {
    EXPECT_EQ(hwres.low[i], swres.low[i]) << "low " << i;
    EXPECT_EQ(hwres.high[i], swres.high[i]) << "high " << i;
  }
}

// gtest (and the ctest names discovered from it) label each case with a dump
// of the Case bytes, padding included; a static table keeps that padding zero
// so the names do not change from run to run.
constexpr Case kCases[] = {{rtl::AdderStyle::kCarryChain, false},
                           {rtl::AdderStyle::kCarryChain, true},
                           {rtl::AdderStyle::kRippleGates, false},
                           {rtl::AdderStyle::kRippleGates, true}};

INSTANTIATE_TEST_SUITE_P(Styles, Lifting53BitTrue, ::testing::ValuesIn(kCases));

TEST(Lifting53, MuchSmallerThanNineSeven) {
  // Two shift-add lifting steps against the 9/7's six multiplier blocks:
  // the combined-architecture motivation of reference [6].
  Datapath53Config cfg53;
  const auto m53 =
      fpga::map_to_apex(rtl::simplify(build_lifting53_datapath(cfg53).netlist));
  const auto m97 = fpga::map_to_apex(
      rtl::simplify(build_design(DesignId::kDesign2).netlist));
  EXPECT_LT(m53.le_count() * 3, m97.le_count());
}

TEST(Lifting53, LatencyShallow) {
  Datapath53Config cfg;
  const BuiltDatapath53 flat = build_lifting53_datapath(cfg);
  EXPECT_LE(flat.latency, 6);
  cfg.pipelined_operators = true;
  const BuiltDatapath53 piped = build_lifting53_datapath(cfg);
  EXPECT_GT(piped.latency, flat.latency - 1);
}

TEST(Lifting53, RejectsBadConfig) {
  Datapath53Config cfg;
  cfg.input_bits = 0;
  EXPECT_THROW(build_lifting53_datapath(cfg), std::invalid_argument);
}

TEST(Lifting53, NetlistValidates) {
  for (const bool pipelined : {false, true}) {
    Datapath53Config cfg;
    cfg.pipelined_operators = pipelined;
    EXPECT_NO_THROW(build_lifting53_datapath(cfg).netlist.validate());
  }
}

}  // namespace
}  // namespace dwt::hw
