#include "dsp/quantizer.hpp"

#include <gtest/gtest.h>

#include "dsp/image_gen.hpp"
#include "dsp/metrics.hpp"

namespace dwt::dsp {
namespace {

TEST(DeadzoneQuantizer, ZeroStaysZero) {
  const DeadzoneQuantizer q{4.0};
  EXPECT_EQ(q.quantize(0.0), 0);
  EXPECT_EQ(q.dequantize(0), 0.0);
}

TEST(DeadzoneQuantizer, DeadzoneSwallowsSmallValues) {
  const DeadzoneQuantizer q{4.0};
  EXPECT_EQ(q.quantize(3.9), 0);
  EXPECT_EQ(q.quantize(-3.9), 0);
  EXPECT_EQ(q.quantize(4.0), 1);
  EXPECT_EQ(q.quantize(-4.0), -1);
}

TEST(DeadzoneQuantizer, MidpointReconstruction) {
  const DeadzoneQuantizer q{4.0};
  EXPECT_DOUBLE_EQ(q.dequantize(1), 6.0);   // bin [4, 8) -> 6
  EXPECT_DOUBLE_EQ(q.dequantize(-1), -6.0);
  EXPECT_DOUBLE_EQ(q.dequantize(3), 14.0);
}

TEST(DeadzoneQuantizer, ReconstructionErrorBounded) {
  const DeadzoneQuantizer q{2.5};
  for (double v = -30.0; v <= 30.0; v += 0.37) {
    const double r = q.dequantize(q.quantize(v));
    EXPECT_LE(std::abs(r - v), 2.5) << v;
  }
}

TEST(DeadzoneQuantizer, RejectsBadStep) {
  const DeadzoneQuantizer q{0.0};
  EXPECT_THROW((void)q.quantize(1.0), std::invalid_argument);
}

TEST(QuantizePlane, ZerosGrowWithStep) {
  Image a = make_still_tone_image(64, 64, 3);
  level_shift_forward(a);
  dwt2d_forward(Method::kLiftingFloat, a, 2);
  Image coarse = a;
  quantize_plane(a, 2, 2.0);
  quantize_plane(coarse, 2, 16.0);
  EXPECT_GT(zero_fraction(coarse), zero_fraction(a));
  EXPECT_GT(zero_fraction(a), 0.1);
}

TEST(QuantizePlane, LosesLittleQualityAtFineStep) {
  Image img = make_still_tone_image(64, 64, 9);
  const Image original = img;
  level_shift_forward(img);
  dwt2d_forward(Method::kLiftingFloat, img, 2);
  quantize_plane(img, 2, 1.0);
  dwt2d_inverse(Method::kLiftingFloat, img, 2);
  level_shift_inverse(img);
  EXPECT_GT(psnr(original, clamped_u8(img)), 35.0);
}

TEST(QuantizePlane, RateDistortionMonotone) {
  double prev_psnr = 1e9;
  for (const double step : {1.0, 4.0, 16.0}) {
    Image img = make_still_tone_image(64, 64, 9);
    const Image original = img;
    level_shift_forward(img);
    dwt2d_forward(Method::kLiftingFloat, img, 2);
    quantize_plane(img, 2, step);
    dwt2d_inverse(Method::kLiftingFloat, img, 2);
    level_shift_inverse(img);
    const double p = psnr(original, clamped_u8(img));
    EXPECT_LT(p, prev_psnr) << step;
    prev_psnr = p;
  }
}

TEST(ZeroFraction, CountsExactZeros) {
  Image img(4, 1);
  img.at(0, 0) = 0.0;
  img.at(1, 0) = 1.0;
  img.at(2, 0) = 0.0;
  img.at(3, 0) = -2.0;
  EXPECT_DOUBLE_EQ(zero_fraction(img), 0.5);
  EXPECT_THROW((void)zero_fraction(Image()), std::invalid_argument);
}

}  // namespace
}  // namespace dwt::dsp
