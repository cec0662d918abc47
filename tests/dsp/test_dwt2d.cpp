#include "dsp/dwt2d.hpp"

#include <gtest/gtest.h>

#include "dsp/image_gen.hpp"
#include "dsp/metrics.hpp"

namespace dwt::dsp {
namespace {

TEST(SubbandRect, FirstOctaveQuadrants) {
  EXPECT_EQ(subband_rect(64, 32, 1, Band::kLL).x0, 0u);
  EXPECT_EQ(subband_rect(64, 32, 1, Band::kLL).w, 32u);
  EXPECT_EQ(subband_rect(64, 32, 1, Band::kHL).x0, 32u);
  EXPECT_EQ(subband_rect(64, 32, 1, Band::kLH).y0, 16u);
  EXPECT_EQ(subband_rect(64, 32, 1, Band::kHH).x0, 32u);
  EXPECT_EQ(subband_rect(64, 32, 1, Band::kHH).y0, 16u);
}

TEST(SubbandRect, DeeperOctavesShrink) {
  const SubbandRect r = subband_rect(64, 64, 3, Band::kLL);
  EXPECT_EQ(r.w, 8u);
  EXPECT_EQ(r.h, 8u);
}

TEST(SubbandRect, OddDimensionsSplitCeilFloor) {
  // 62 -> 31 -> 16 at octave 2; 64 -> 32 -> 16.
  const SubbandRect ll = subband_rect(62, 64, 2, Band::kLL);
  EXPECT_EQ(ll.w, 16u);
  EXPECT_EQ(ll.h, 16u);
  // 31 wide at octave 2: low 16, high 15.
  const SubbandRect hl = subband_rect(62, 64, 2, Band::kHL);
  EXPECT_EQ(hl.x0, 16u);
  EXPECT_EQ(hl.w, 15u);
  EXPECT_EQ(hl.h, 16u);
}

TEST(SubbandRect, RejectsBadArguments) {
  EXPECT_THROW((void)subband_rect(64, 64, 0, Band::kLL), std::invalid_argument);
  EXPECT_THROW((void)subband_rect(0, 64, 1, Band::kLL), std::invalid_argument);
}

class Dwt2dRoundTrip
    : public ::testing::TestWithParam<std::tuple<Method, int>> {};

TEST_P(Dwt2dRoundTrip, ReconstructsImage) {
  const auto [method, octaves] = GetParam();
  Image img = make_still_tone_image(64, 64, 17);
  const Image original = img;
  level_shift_forward(img);
  dwt2d_forward(method, img, octaves);
  dwt2d_inverse(method, img, octaves);
  level_shift_inverse(img);
  const double p = psnr(original, img);
  // Float methods reconstruct exactly; fixed ones accumulate about one LSB
  // of truncation noise per stage and octave (paper regime: ~37 dB).
  EXPECT_GT(p, is_fixed(method) ? 30.0 : 200.0)
      << to_string(method) << " octaves=" << octaves;
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndOctaves, Dwt2dRoundTrip,
    ::testing::Combine(::testing::Values(Method::kFirFloat, Method::kFirFixed,
                                         Method::kLiftingFloat,
                                         Method::kLiftingFixed),
                       ::testing::Values(1, 2, 3)));

TEST(Dwt2d, EnergyCompactsIntoLL) {
  Image img = make_still_tone_image(64, 64, 23);
  level_shift_forward(img);
  dwt2d_forward(Method::kLiftingFloat, img, 2);
  double ll = 0, rest = 0;
  const SubbandRect r = subband_rect(64, 64, 2, Band::kLL);
  for (std::size_t y = 0; y < 64; ++y) {
    for (std::size_t x = 0; x < 64; ++x) {
      const double v = img.at(x, y) * img.at(x, y);
      if (x < r.w && y < r.h) {
        ll += v;
      } else {
        rest += v;
      }
    }
  }
  // A still-tone image concentrates most energy in 1/16 of the samples.
  EXPECT_GT(ll, 2.5 * rest);
}

TEST(Dwt2d, RoundCoefficientsRounds) {
  Image img(4, 4);
  img.at(0, 0) = 1.4;
  img.at(1, 0) = -1.6;
  round_coefficients(img);
  EXPECT_EQ(img.at(0, 0), 1.0);
  EXPECT_EQ(img.at(1, 0), -2.0);
}

TEST(Dwt2d, LevelShiftRoundTrips) {
  Image img = make_still_tone_image(16, 16, 3);
  const Image original = img;
  level_shift_forward(img);
  EXPECT_EQ(img.at(3, 3), original.at(3, 3) - 128.0);
  level_shift_inverse(img);
  EXPECT_EQ(img.at(3, 3), original.at(3, 3));
}

TEST(Dwt2d, OddRegionsRoundTrip) {
  Image img = make_still_tone_image(63, 41, 19);
  const Image original = img;
  level_shift_forward(img);
  dwt2d_forward(Method::kLiftingFloat, img, 3);
  dwt2d_inverse(Method::kLiftingFloat, img, 3);
  level_shift_inverse(img);
  EXPECT_GT(psnr(original, img), 200.0);
}

TEST(Dwt2d, DeepOctavesBottomOutAtOnePixel) {
  // 8 -> 4 -> 2 -> 1 -> 1: a 1 x 1 LL is a fixed point, so any octave
  // count is legal.
  Image img = make_still_tone_image(8, 8, 21);
  const Image original = img;
  level_shift_forward(img);
  dwt2d_forward(Method::kLiftingFloat, img, 5);
  dwt2d_inverse(Method::kLiftingFloat, img, 5);
  level_shift_inverse(img);
  EXPECT_GT(psnr(original, img), 200.0);
}

TEST(Dwt2d, CoefficientRoundingGivesTable2StylePsnr) {
  // The Table 2 procedure: transform, round coefficients to integers,
  // inverse -- this is what makes even the float pipeline lossy.
  Image img = make_still_tone_image(64, 64, 29);
  const Image original = img;
  level_shift_forward(img);
  dwt2d_forward(Method::kLiftingFloat, img, 3);
  round_coefficients(img);
  dwt2d_inverse(Method::kLiftingFloat, img, 3);
  level_shift_inverse(img);
  const double p = psnr(original, clamped_u8(img));
  EXPECT_GT(p, 30.0);
  EXPECT_LT(p, 60.0);
}

TEST(Dwt2d, SeparabilityRowsThenColumns) {
  // One octave on a rank-1 image equals the outer product of 1-D results.
  const std::size_t n = 16;
  std::vector<double> u(n), v(n);
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = static_cast<double>((i * 7) % 13) - 6.0;
    v[i] = static_cast<double>((i * 5) % 11) - 5.0;
  }
  Image img(n, n);
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) img.at(x, y) = u[x] * v[y];
  }
  dwt2d_forward(Method::kLiftingFloat, img, 1);
  const Subbands1d su = dwt1d_forward(Method::kLiftingFloat, u);
  const Subbands1d sv = dwt1d_forward(Method::kLiftingFloat, v);
  std::vector<double> ru(n), rv(n);
  for (std::size_t i = 0; i < n / 2; ++i) {
    ru[i] = su.low[i];
    ru[i + n / 2] = su.high[i];
    rv[i] = sv.low[i];
    rv[i + n / 2] = sv.high[i];
  }
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      EXPECT_NEAR(img.at(x, y), ru[x] * rv[y], 1e-9) << x << "," << y;
    }
  }
}

}  // namespace
}  // namespace dwt::dsp
