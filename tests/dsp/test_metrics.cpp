#include "dsp/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace dwt::dsp {
namespace {

TEST(Metrics, MseOfIdenticalIsZero) {
  const std::vector<double> a{1, 2, 3};
  EXPECT_EQ(mse(a, a), 0.0);
}

TEST(Metrics, MseDefinition) {
  const std::vector<double> a{0, 0, 0, 0};
  const std::vector<double> b{1, -1, 2, -2};
  EXPECT_DOUBLE_EQ(mse(a, b), (1.0 + 1.0 + 4.0 + 4.0) / 4.0);
}

TEST(Metrics, MseRejectsMismatch) {
  EXPECT_THROW((void)mse(std::vector<double>{1}, std::vector<double>{1, 2}),
               std::invalid_argument);
  EXPECT_THROW((void)mse(std::vector<double>{}, std::vector<double>{}),
               std::invalid_argument);
}

TEST(Metrics, PsnrOfIdenticalIsInfinite) {
  const std::vector<double> a{5, 6, 7};
  EXPECT_TRUE(std::isinf(psnr(a, a)));
}

TEST(Metrics, PsnrKnownValue) {
  // MSE = 1 with peak 255: PSNR = 10 log10(255^2) = 48.13 dB.
  std::vector<double> a(100, 0.0), b(100, 1.0);
  EXPECT_NEAR(psnr(a, b), 48.1308, 1e-3);
}

TEST(Metrics, PsnrDecreasesWithError) {
  std::vector<double> a(64, 0.0), b1(64, 1.0), b4(64, 4.0);
  EXPECT_GT(psnr(a, b1), psnr(a, b4));
}

TEST(Metrics, ImageOverloadMatchesVector) {
  Image x(4, 2), y(4, 2);
  for (std::size_t i = 0; i < 8; ++i) {
    x.data()[i] = static_cast<double>(i);
    y.data()[i] = static_cast<double>(i) + 2.0;
  }
  EXPECT_DOUBLE_EQ(mse(x, y), 4.0);
  EXPECT_DOUBLE_EQ(psnr(x, y), psnr(x.data(), y.data()));
}

TEST(Metrics, ImageDimensionMismatchRejected) {
  EXPECT_THROW((void)mse(Image(2, 2), Image(4, 1)), std::invalid_argument);
}

TEST(Metrics, PixelPsnrSumsTheWindowsSquaredErrorExactly) {
  // Two 3x2 windows of 4-wide byte planes; the column outside each window
  // differs and must not count.
  const std::vector<std::uint8_t> a{0, 10, 255, 7, 5, 5, 5, 7};
  const std::vector<std::uint8_t> b{1, 9, 255, 0, 5, 5, 5, 0};
  const PlaneView<const std::uint8_t> va{a.data(), 4, 3, 2};
  const PlaneView<const std::uint8_t> vb{b.data(), 4, 3, 2};
  EXPECT_TRUE(std::isinf(psnr(va, va)));
  // Squared error 2 over 6 pixels.
  EXPECT_DOUBLE_EQ(psnr(va, vb), 10.0 * std::log10(255.0 * 255.0 * 3.0));
  EXPECT_THROW((void)psnr(va, PlaneView<const std::uint8_t>{b.data(), 4, 2, 2}),
               std::invalid_argument);
}

TEST(Metrics, CustomPeak) {
  std::vector<double> a(10, 0.0), b(10, 1.0);
  EXPECT_NEAR(psnr(a, b, 1.0), 0.0, 1e-12);
}

}  // namespace
}  // namespace dwt::dsp
