// The float 9/7 lifting scheme (paper figure 3) as a 1-D transform: the
// split into even/odd phases, the four lifting steps (predict alpha, update
// beta, predict gamma, update delta) and the scaling low = even / k,
// high = -k * odd, through the method's one-row window.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "support/lines.hpp"

namespace dwt::dsp {
namespace {

using test::Bands;

Bands<double> lifting_forward(const std::vector<double>& x) {
  return test::forward_row(Method::kLiftingFloat, x);
}

std::vector<double> lifting_inverse(const Bands<double>& s) {
  return test::inverse_row(Method::kLiftingFloat, s.low, s.high);
}

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = static_cast<double>(rng.uniform(-128, 127));
  return x;
}

class LiftingPerfectReconstruction
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LiftingPerfectReconstruction, RoundTripIsExact) {
  const auto x = random_signal(GetParam(), GetParam() + 1);
  const Bands<double> s = lifting_forward(x);
  const std::vector<double> xr = lifting_inverse(s);
  ASSERT_EQ(xr.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(xr[i], x[i], 1e-10) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, LiftingPerfectReconstruction,
                         ::testing::Values(2, 4, 6, 8, 12, 16, 32, 64, 128,
                                           256, 500));

TEST(Dwt97Lifting, EquivalentToFirFilterBank) {
  // The lifting factorization is exact: the low band equals the FIR filter
  // bank's, and the high band is sign-flipped (the paper's -k convention).
  const auto x = random_signal(64, 77);
  const Bands<double> l = lifting_forward(x);
  const Bands<double> f = test::forward_row(Method::kFirFloat, x);
  ASSERT_EQ(l.low.size(), f.low.size());
  for (std::size_t i = 0; i < l.low.size(); ++i) {
    EXPECT_NEAR(l.low[i], f.low[i], 1e-9) << i;
    EXPECT_NEAR(l.high[i], -f.high[i], 1e-9) << i;
  }
}

TEST(Dwt97Lifting, ConstantSignal) {
  const std::vector<double> x(32, 50.0);
  const Bands<double> s = lifting_forward(x);
  for (std::size_t i = 0; i < s.low.size(); ++i) {
    EXPECT_NEAR(s.low[i], 50.0, 1e-9);
    EXPECT_NEAR(s.high[i], 0.0, 1e-9);
  }
}

TEST(Dwt97Lifting, OddLengthRoundTrips) {
  const auto x = random_signal(31, 9);
  const Bands<double> s = lifting_forward(x);
  EXPECT_EQ(s.low.size(), 16u);
  EXPECT_EQ(s.high.size(), 15u);
  const std::vector<double> xr = lifting_inverse(s);
  ASSERT_EQ(xr.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(xr[i], x[i], 1e-9) << i;
  }
}

TEST(Dwt97Lifting, RejectsEmptySignal) {
  EXPECT_THROW(lifting_forward(std::vector<double>{}),
               std::invalid_argument);
  EXPECT_THROW(lifting_inverse({}), std::invalid_argument);
}

TEST(Dwt97Lifting, LinearityProperty) {
  const auto a = random_signal(32, 5);
  const auto b = random_signal(32, 6);
  std::vector<double> sum(32);
  for (std::size_t i = 0; i < 32; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  const Bands<double> sa = lifting_forward(a);
  const Bands<double> sb = lifting_forward(b);
  const Bands<double> ss = lifting_forward(sum);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(ss.low[i], 2.0 * sa.low[i] + 3.0 * sb.low[i], 1e-9);
    EXPECT_NEAR(ss.high[i], 2.0 * sa.high[i] + 3.0 * sb.high[i], 1e-9);
  }
}

TEST(Dwt97Lifting, RampHasZeroInteriorHighBand) {
  std::vector<double> x(64);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.5 * static_cast<double>(i) - 10.0;
  }
  const Bands<double> s = lifting_forward(x);
  for (std::size_t i = 2; i + 2 < s.high.size(); ++i) {
    EXPECT_NEAR(s.high[i], 0.0, 1e-9) << i;
  }
}

}  // namespace
}  // namespace dwt::dsp
