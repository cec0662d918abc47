// The reversible 5/3 (Le Gall) lifting transform of the paper's reference
// [6], integer to integer and exactly invertible:
//   d[i] = x[2i+1] - floor((x[2i] + x[2i+2]) / 2)
//   s[i] = x[2i]   + floor((d[i-1] + d[i] + 2) / 4)
// run as the ladder's 5/3 step table.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dsp/dwt2d.hpp"
#include "dsp/image_gen.hpp"
#include "dsp/lifting_ladder.hpp"
#include "support/lines.hpp"

namespace dwt::dsp {
namespace {

test::Bands<std::int64_t> forward53(std::vector<std::int64_t> x) {
  return test::forward_bands(LiftingLadder(reversible53_steps(), false),
                             std::move(x));
}

std::vector<std::int64_t> inverse53(
    const std::vector<std::int64_t>& low,
    const std::vector<std::int64_t>& high) {
  return test::inverse_line(LiftingLadder(reversible53_steps(), true), low,
                            high);
}

std::vector<std::int64_t> random_samples(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::int64_t> x(n);
  for (auto& v : x) v = rng.uniform(-128, 127);
  return x;
}

class Reversible53 : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Reversible53, LosslessRoundTrip) {
  const auto x = random_samples(GetParam(), GetParam() + 3);
  const test::Bands<std::int64_t> s = forward53(x);
  const std::vector<std::int64_t> xr = inverse53(s.low, s.high);
  EXPECT_EQ(xr, x);
}

INSTANTIATE_TEST_SUITE_P(Lengths, Reversible53,
                         ::testing::Values(2, 4, 6, 8, 16, 32, 64, 128, 256,
                                           1000));

TEST(Dwt53, KnownValues) {
  // d[0] = 7 - floor((10 + 20)/2) = -8; d[1] = 3 - floor((20+20)/2) = -17
  // s[0] = 10 + floor((-8 + -8 + 2)/4) = 10 + floor(-14/4) = 10 - 4 = 6
  // s[1] = 20 + floor((-8 + -17 + 2)/4) = 20 + floor(-23/4) = 20 - 6 = 14
  const std::vector<std::int64_t> x{10, 7, 20, 3};
  const test::Bands<std::int64_t> s = forward53(x);
  EXPECT_EQ(s.high[0], -8);
  EXPECT_EQ(s.high[1], -17);
  EXPECT_EQ(s.low[0], 6);
  EXPECT_EQ(s.low[1], 14);
}

TEST(Dwt53, ConstantSignalPassesThroughLow) {
  const std::vector<std::int64_t> x(16, 42);
  const test::Bands<std::int64_t> s = forward53(x);
  for (const std::int64_t v : s.high) EXPECT_EQ(v, 0);
  for (const std::int64_t v : s.low) EXPECT_EQ(v, 42);
}

TEST(Dwt53, LowBandStaysNearInputScale) {
  // Unlike the 9/7 in this normalization, the reversible 5/3 low band keeps
  // the pixel scale (DC gain 1).
  const auto x = random_samples(128, 7);
  const test::Bands<std::int64_t> s = forward53(x);
  for (const std::int64_t v : s.low) {
    EXPECT_GE(v, -260);
    EXPECT_LE(v, 260);
  }
}

TEST(Dwt53, OddLengthRoundTripsLosslessly) {
  const auto x = random_samples(29, 13);
  const test::Bands<std::int64_t> s = forward53(x);
  EXPECT_EQ(s.low.size(), 15u);
  EXPECT_EQ(s.high.size(), 14u);
  EXPECT_EQ(inverse53(s.low, s.high), x);
}

TEST(Dwt53, RejectsBadInput) {
  // An empty signal is an empty one-row window.
  Image empty(0, 1);
  EXPECT_THROW(dwt2d_forward(Method::kReversible53, empty, 1),
               std::invalid_argument);
  EXPECT_THROW(dwt2d_inverse(Method::kReversible53, empty, 1),
               std::invalid_argument);
}

TEST(Dwt53, TwoDimensionalLosslessViaMethodEnum) {
  Image img = make_still_tone_image(64, 64, 31);
  round_coefficients(img);
  const Image original = img;
  level_shift_forward(img);
  dwt2d_forward(Method::kReversible53, img, 3);
  dwt2d_inverse(Method::kReversible53, img, 3);
  level_shift_inverse(img);
  EXPECT_EQ(img.data(), original.data());  // bit exact
}

TEST(Dwt53, IsFixedMethod) {
  EXPECT_TRUE(is_fixed(Method::kReversible53));
  EXPECT_FALSE(to_string(Method::kReversible53).empty());
}

}  // namespace
}  // namespace dwt::dsp
