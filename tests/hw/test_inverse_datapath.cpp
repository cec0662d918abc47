#include "hw/inverse_lifting_datapath.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "dsp/dwt97_lifting_fixed.hpp"
#include "dsp/image_gen.hpp"
#include "dsp/lifting_ladder.hpp"
#include "hw/designs.hpp"
#include "hw/stream_runner.hpp"
#include "rtl/simulator.hpp"
#include "support/lines.hpp"

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

/// The streaming harness approximates the software inverse's boundary
/// convention with edge replication, which differs on the trailing window;
/// interior outputs must match exactly.
constexpr std::size_t kTailSlack = 2;

struct Case {
  rtl::AdderStyle style;
  bool pipelined;
};

class InverseBitTrue : public ::testing::TestWithParam<Case> {};

TEST_P(InverseBitTrue, MatchesSoftwareInverse) {
  InverseDatapathConfig cfg;
  cfg.adder_style = GetParam().style;
  cfg.pipelined_operators = GetParam().pipelined;
  const BuiltInverseDatapath dp = build_inverse_lifting_datapath(cfg);
  rtl::Simulator sim(dp.netlist);

  const auto c = dsp::LiftingFixedCoeffs::rounded(8);
  const auto x = image_samples(128, 2005);
  const auto sub = dsp::lifting97_forward_fixed_trace(x, c);
  const auto sw = test::inverse_line(
      dsp::LiftingLadder(dsp::fixed97_steps(c), true), sub.low, sub.high);
  const InverseStreamResult hw = run_stream_inverse(dp, sim, sub.low, sub.high);
  ASSERT_EQ(hw.samples.size(), sw.size());
  for (std::size_t i = 0; i + 2 * kTailSlack < sw.size(); ++i) {
    EXPECT_EQ(hw.samples[i], sw[i]) << "i=" << i;
  }
}

// gtest (and the ctest names discovered from it) label each case with a dump
// of the Case bytes, padding included; a static table keeps that padding zero
// so the names do not change from run to run.
constexpr Case kCases[] = {{rtl::AdderStyle::kCarryChain, false},
                           {rtl::AdderStyle::kCarryChain, true},
                           {rtl::AdderStyle::kRippleGates, false},
                           {rtl::AdderStyle::kRippleGates, true}};

INSTANTIATE_TEST_SUITE_P(Styles, InverseBitTrue, ::testing::ValuesIn(kCases));

TEST(InverseDatapath, EndToEndRoundTripThroughBothCores) {
  // Forward core -> inverse core: the full hardware transform pipeline
  // reconstructs the input to within the fixed-point round-trip error.
  const BuiltDatapath fwd = build_design(DesignId::kDesign2);
  InverseDatapathConfig icfg;
  const BuiltInverseDatapath inv = build_inverse_lifting_datapath(icfg);
  rtl::Simulator fsim(fwd.netlist);
  rtl::Simulator isim(inv.netlist);

  const auto x = image_samples(128, 31);
  const StreamResult sub = run_stream(fwd, fsim, x);
  const InverseStreamResult rec =
      run_stream_inverse(inv, isim, sub.low, sub.high);
  ASSERT_EQ(rec.samples.size(), x.size());
  for (std::size_t i = 0; i + 2 * kTailSlack < x.size(); ++i) {
    EXPECT_LE(std::abs(rec.samples[i] - x[i]), 5) << "i=" << i;
  }
}

TEST(InverseDatapath, LatencyAndPorts) {
  const BuiltInverseDatapath dp = build_inverse_lifting_datapath({});
  EXPECT_GT(dp.latency, 5);
  EXPECT_EQ(dp.in_low.width(), 10);
  EXPECT_EQ(dp.in_high.width(), 9);
  // Reconstructed samples carry the fixed-point error margin above 8 bits.
  EXPECT_GE(dp.out_even.width(), 8);
}

TEST(InverseDatapath, RejectsBadConfig) {
  InverseDatapathConfig cfg;
  cfg.low_bits = 0;
  EXPECT_THROW(build_inverse_lifting_datapath(cfg), std::invalid_argument);
  cfg = {};
  cfg.frac_bits = 0;
  EXPECT_THROW(build_inverse_lifting_datapath(cfg), std::invalid_argument);
}

TEST(InverseDatapath, NetlistValidates) {
  for (const bool pipelined : {false, true}) {
    InverseDatapathConfig cfg;
    cfg.pipelined_operators = pipelined;
    EXPECT_NO_THROW(build_inverse_lifting_datapath(cfg).netlist.validate());
  }
}

}  // namespace
}  // namespace dwt::hw
