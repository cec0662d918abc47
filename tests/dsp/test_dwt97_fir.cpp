// The 9/7 FIR filter bank (paper figure 2) as a 1-D transform: the FIR
// methods' one-row windows and the FirBank kernel on its tap tables.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "dsp/fir_filter.hpp"
#include "support/lines.hpp"

namespace dwt::dsp {
namespace {

using test::Bands;

Bands<double> fir_forward(const std::vector<double>& x) {
  return test::forward_row(Method::kFirFloat, x);
}

std::vector<double> fir_inverse(const Bands<double>& s) {
  return test::inverse_row(Method::kFirFloat, s.low, s.high);
}

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = static_cast<double>(rng.uniform(-128, 127));
  return x;
}

TEST(Dwt97Fir, SubbandSizesAreHalf) {
  const auto x = random_signal(64, 1);
  const Bands<double> s = fir_forward(x);
  EXPECT_EQ(s.low.size(), 32u);
  EXPECT_EQ(s.high.size(), 32u);
}

TEST(Dwt97Fir, OddLengthSplitsCeilFloor) {
  const auto x = random_signal(33, 3);
  const Bands<double> s = fir_forward(x);
  EXPECT_EQ(s.low.size(), 17u);
  EXPECT_EQ(s.high.size(), 16u);
  const std::vector<double> xr = fir_inverse(s);
  ASSERT_EQ(xr.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(xr[i], x[i], 1e-9) << "i=" << i;
  }
}

TEST(Dwt97Fir, SingleSamplePassesThrough) {
  const Bands<double> s = fir_forward(std::vector<double>{42.0});
  ASSERT_EQ(s.low.size(), 1u);
  EXPECT_EQ(s.high.size(), 0u);
  EXPECT_DOUBLE_EQ(s.low[0], 42.0);
  const std::vector<double> xr = fir_inverse(s);
  ASSERT_EQ(xr.size(), 1u);
  EXPECT_DOUBLE_EQ(xr[0], 42.0);
}

TEST(Dwt97Fir, RejectsEmptySignal) {
  EXPECT_THROW(fir_forward(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(fir_inverse({}), std::invalid_argument);
}

class FirPerfectReconstruction : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FirPerfectReconstruction, RoundTripIsExact) {
  const auto x = random_signal(GetParam(), GetParam());
  const Bands<double> s = fir_forward(x);
  const std::vector<double> xr = fir_inverse(s);
  ASSERT_EQ(xr.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(xr[i], x[i], 1e-9) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, FirPerfectReconstruction,
                         ::testing::Values(2, 4, 6, 8, 10, 16, 32, 64, 126,
                                           128, 256, 512));

TEST(Dwt97Fir, ConstantSignalConcentratesInLowBand) {
  const std::vector<double> x(32, 100.0);
  const Bands<double> s = fir_forward(x);
  for (std::size_t i = 0; i < s.low.size(); ++i) {
    EXPECT_NEAR(s.low[i], 100.0, 1e-9);   // analysis DC gain 1
    EXPECT_NEAR(s.high[i], 0.0, 1e-9);
  }
}

TEST(Dwt97Fir, LinearRampHasZeroHighBandInterior) {
  // The 9/7 high-pass filter has two vanishing moments: polynomials of
  // degree <= 1 are annihilated away from boundaries.
  std::vector<double> x(64);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 3.0 * static_cast<double>(i);
  const Bands<double> s = fir_forward(x);
  for (std::size_t i = 2; i + 2 < s.high.size(); ++i) {
    EXPECT_NEAR(s.high[i], 0.0, 1e-9) << i;
  }
}

TEST(Dwt97Fir, EnergyRoughlyPreserved) {
  // The 9/7 transform is near-orthogonal in this normalization after
  // accounting for the dyadic weighting; a loose two-sided bound guards
  // against scaling regressions.
  const auto x = random_signal(256, 5);
  const Bands<double> s = fir_forward(x);
  double ex = 0, es = 0;
  for (const double v : x) ex += v * v;
  for (const double v : s.low) es += v * v;
  for (const double v : s.high) es += v * v;
  EXPECT_GT(es, 0.4 * ex);
  EXPECT_LT(es, 2.5 * ex);
}

TEST(Dwt97FirFixed, MatchesFloatWithinQuantization) {
  const auto x = random_signal(64, 9);
  const std::vector<std::int64_t> xi(x.begin(), x.end());
  const auto coeffs = Dwt97FirFixedCoeffs::rounded(8);
  const Bands<std::int64_t> sf =
      test::forward_bands(FirBank(fixed97_taps(coeffs), false), xi);
  const Bands<double> s = fir_forward(x);
  for (std::size_t i = 0; i < s.low.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(sf.low[i]), s.low[i], 3.0) << i;
    EXPECT_NEAR(static_cast<double>(sf.high[i]), s.high[i], 3.0) << i;
  }
}

TEST(Dwt97FirFixed, RoundTripErrorSmall) {
  const auto x = random_signal(128, 12);
  const std::vector<std::int64_t> xi(x.begin(), x.end());
  const auto coeffs = Dwt97FirFixedCoeffs::rounded(8);
  const Bands<std::int64_t> s =
      test::forward_bands(FirBank(fixed97_taps(coeffs), false), xi);
  const std::vector<std::int64_t> xr =
      test::inverse_line(FirBank(fixed97_taps(coeffs), true), s.low, s.high);
  ASSERT_EQ(xr.size(), xi.size());
  for (std::size_t i = 0; i < xi.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(xr[i]), static_cast<double>(xi[i]), 6.0)
        << i;
  }
}

TEST(Dwt97Fir, ArchitectureCostMatchesFigure2) {
  const FirArchitectureCost cost = fir97_architecture_cost();
  EXPECT_EQ(cost.adders, 16);
  EXPECT_EQ(cost.multipliers, 16);
  EXPECT_EQ(cost.delay_registers, 8);
}

}  // namespace
}  // namespace dwt::dsp
