// The Table 2 methods as 1-D transforms: one-row windows of the 2-D
// transform.
#include "dsp/dwt1d.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "support/lines.hpp"

namespace dwt::dsp {
namespace {

using test::Bands;
using test::forward_row;
using test::inverse_row;

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = static_cast<double>(rng.uniform(-128, 127));
  return x;
}

constexpr Method kAllMethods[] = {Method::kFirFloat, Method::kFirFixed,
                                  Method::kLiftingFloat, Method::kLiftingFixed};

class AllMethods : public ::testing::TestWithParam<Method> {};

TEST_P(AllMethods, SubbandSizes) {
  const auto x = random_signal(64, 2);
  const Bands<double> s = forward_row(GetParam(), x);
  EXPECT_EQ(s.low.size(), 32u);
  EXPECT_EQ(s.high.size(), 32u);
}

TEST_P(AllMethods, RoundTripErrorBounded) {
  const Method m = GetParam();
  const auto x = random_signal(128, 3);
  const Bands<double> s = forward_row(m, x);
  const std::vector<double> xr = inverse_row(m, s.low, s.high);
  const double tol = is_fixed(m) ? 6.0 : 1e-9;
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(xr[i], x[i], tol) << to_string(m) << " i=" << i;
  }
}

TEST_P(AllMethods, FixedMethodsProduceIntegers) {
  const Method m = GetParam();
  const auto x = random_signal(32, 4);
  const Bands<double> s = forward_row(m, x);
  if (is_fixed(m)) {
    for (const double v : s.low) EXPECT_EQ(v, std::floor(v));
    for (const double v : s.high) EXPECT_EQ(v, std::floor(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, AllMethods, ::testing::ValuesIn(kAllMethods),
                         [](const auto& info) -> std::string {
                           switch (info.param) {
                             case Method::kFirFloat: return "FirFloat";
                             case Method::kFirFixed: return "FirFixed";
                             case Method::kLiftingFloat: return "LiftingFloat";
                             case Method::kLiftingFixed: return "LiftingFixed";
                             default: break;
                           }
                           return "Unknown";
                         });

TEST(Dwt1d, MethodsAgreeOnLowBand) {
  // All four methods compute the same transform up to quantization noise
  // (the paper's Table 2 premise).
  const auto x = random_signal(64, 5);
  const Bands<double> fir = forward_row(Method::kFirFloat, x);
  const Bands<double> lf = forward_row(Method::kLiftingFloat, x);
  const Bands<double> ff = forward_row(Method::kFirFixed, x);
  const Bands<double> lx = forward_row(Method::kLiftingFixed, x);
  for (std::size_t i = 0; i < fir.low.size(); ++i) {
    EXPECT_NEAR(lf.low[i], fir.low[i], 1e-9);
    EXPECT_NEAR(ff.low[i], fir.low[i], 6.0);
    EXPECT_NEAR(lx.low[i], fir.low[i], 6.0);
  }
}

TEST(Dwt1d, HighBandSignConventionsDocumented) {
  const auto x = random_signal(64, 6);
  const Bands<double> fir = forward_row(Method::kFirFloat, x);
  const Bands<double> lf = forward_row(Method::kLiftingFloat, x);
  for (std::size_t i = 0; i < fir.high.size(); ++i) {
    EXPECT_NEAR(lf.high[i], -fir.high[i], 1e-9) << i;
  }
}

TEST(Dwt1d, ToStringCoversAllMethods) {
  for (const Method m : kAllMethods) {
    EXPECT_FALSE(to_string(m).empty());
  }
}

TEST(Dwt1d, CustomFracBitsRoundTripStaysBounded) {
  const auto x = random_signal(64, 7);
  const Bands<double> s12 = forward_row(Method::kLiftingFixed, x, 12);
  const std::vector<double> xr =
      inverse_row(Method::kLiftingFixed, s12.low, s12.high, 12);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(xr[i], x[i], 6.0) << i;
  }
}

TEST(Dwt1d, HwFloatMethodsRoundTrip) {
  const auto x = random_signal(64, 8);
  for (const Method m : {Method::kFirHwFloat, Method::kLiftingHwFloat}) {
    const Bands<double> s = forward_row(m, x);
    const std::vector<double> xr = inverse_row(m, s.low, s.high);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(xr[i], x[i], 6.0) << to_string(m) << " " << i;
    }
  }
}

}  // namespace
}  // namespace dwt::dsp
