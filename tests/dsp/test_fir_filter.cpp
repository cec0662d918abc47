#include "dsp/fir_filter.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "dsp/dwt2d.hpp"

namespace dwt::dsp {
namespace {

TEST(FirCoeffs, AnalysisLowPassIsSymmetricWithDcGainOne) {
  const auto& c = Dwt97FirCoeffs::daubechies97();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(c.analysis_low[i], c.analysis_low[8 - i]);
  }
  const double sum =
      std::accumulate(c.analysis_low.begin(), c.analysis_low.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(FirCoeffs, AnalysisHighPassIsSymmetricWithZeroDc) {
  const auto& c = Dwt97FirCoeffs::daubechies97();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(c.analysis_high[i], c.analysis_high[6 - i]);
  }
  const double sum =
      std::accumulate(c.analysis_high.begin(), c.analysis_high.end(), 0.0);
  EXPECT_NEAR(sum, 0.0, 1e-12);
}

TEST(FirCoeffs, SynthesisLowPassDcGainTwo) {
  const auto& c = Dwt97FirCoeffs::daubechies97();
  const double sum =
      std::accumulate(c.synthesis_low.begin(), c.synthesis_low.end(), 0.0);
  EXPECT_NEAR(sum, 2.0, 1e-10);
}

TEST(FirCoeffs, BiorthogonalModulationRelation) {
  // Synthesis low = (-1)^n * analysis high; synthesis high = (-1)^n *
  // analysis low (center-aligned).
  const auto& c = Dwt97FirCoeffs::daubechies97();
  for (std::size_t i = 0; i < 7; ++i) {
    const double sign = (i % 2 == 0) ? -1.0 : 1.0;
    EXPECT_NEAR(c.synthesis_low[i], sign * c.analysis_high[i], 1e-12) << i;
  }
}

TEST(FirFixedCoeffs, RoundedAtEightBits) {
  const auto f = Dwt97FirFixedCoeffs::rounded(8);
  EXPECT_EQ(f.analysis_low[4], 154);   // 0.602949 * 256 = 154.35
  EXPECT_EQ(f.analysis_high[3], 285);  // 1.115087 * 256 = 285.46
  EXPECT_EQ(f.analysis_low[0], 7);     // 0.026749 * 256 = 6.85
  EXPECT_EQ(f.analysis_low[1], -4);    // -0.016864 * 256 = -4.32
  EXPECT_EQ(f.frac_bits, 8);
}

TEST(MirrorIndex, IdentityInsideRange) {
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(mirror_index(static_cast<std::ptrdiff_t>(i), 8), i);
  }
}

TEST(MirrorIndex, WholeSampleSymmetryAtZero) {
  // x[-1] = x[1], x[-2] = x[2]: mirror without repeating the edge sample.
  EXPECT_EQ(mirror_index(-1, 8), 1u);
  EXPECT_EQ(mirror_index(-2, 8), 2u);
  EXPECT_EQ(mirror_index(-7, 8), 7u);
}

TEST(MirrorIndex, WholeSampleSymmetryAtTop) {
  EXPECT_EQ(mirror_index(8, 8), 6u);
  EXPECT_EQ(mirror_index(9, 8), 5u);
  EXPECT_EQ(mirror_index(14, 8), 0u);
}

TEST(MirrorIndex, PeriodicBeyondOneReflection) {
  // The extension has period 2(n-1) = 14 for n = 8.
  EXPECT_EQ(mirror_index(15, 8), mirror_index(1, 8));
  EXPECT_EQ(mirror_index(-15, 8), mirror_index(-1, 8));
}

TEST(MirrorIndex, SingleSampleSignal) {
  EXPECT_EQ(mirror_index(5, 1), 0u);
  EXPECT_EQ(mirror_index(-5, 1), 0u);
}

TEST(MirrorIndex, EmptySignalThrows) {
  EXPECT_THROW((void)mirror_index(0, 0), std::invalid_argument);
}

TEST(FirAt, ImpulseRecoversCoefficients) {
  // Filtering an impulse at p reproduces the filter taps: low value k is
  // the analysis low-pass at 2k, so it sees tap p - 2k + 4, and high value
  // k the high-pass at 2k + 1, seeing tap p - 2k + 2.  An impulse at an
  // even and at an odd position between them reach every tap.
  const auto& c = Dwt97FirCoeffs::daubechies97();
  const auto tap = [](const auto& taps, std::ptrdiff_t t) {
    return t >= 0 && t < std::ssize(taps) ? taps[static_cast<std::size_t>(t)]
                                          : 0.0;
  };
  for (const std::ptrdiff_t p : {16, 17}) {
    std::vector<double> x(32, 0.0);
    x[static_cast<std::size_t>(p)] = 1.0;
    FirBank(float97_taps(c), false)(x.data(), x.size());
    for (std::ptrdiff_t k = 0; k < 16; ++k) {
      const auto i = static_cast<std::size_t>(k);
      EXPECT_EQ(x[i], tap(c.analysis_low, p - 2 * k + 4)) << p << " " << k;
      EXPECT_EQ(x[16 + i], tap(c.analysis_high, p - 2 * k + 2))
          << p << " " << k;
    }
  }
}

TEST(FirAt, ConstantSignalGivesDcGain) {
  std::vector<double> x(16, 3.0);
  FirBank(float97_taps(Dwt97FirCoeffs::daubechies97()), false)(x.data(),
                                                               x.size());
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_NEAR(x[k], 3.0, 1e-12) << k;      // DC gain 1
    EXPECT_NEAR(x[8 + k], 0.0, 1e-12) << k;  // DC gain 0
  }
}

TEST(FirAtFixed, MatchesExactIntegerArithmetic) {
  // Products accumulate exactly, then one arithmetic right shift by the
  // taps' fractional bits.
  const auto f = Dwt97FirFixedCoeffs::rounded(8);
  const std::vector<std::int64_t> x = {10, -20, 30, -40, 50, -60, 70, -80};
  std::vector<std::int64_t> y = x;
  FirBank(fixed97_taps(f), false)(y.data(), y.size());
  for (std::ptrdiff_t k = 0; k < 4; ++k) {
    std::int64_t low = 0, high = 0;
    for (std::ptrdiff_t t = -4; t <= 4; ++t) {
      low += f.analysis_low[static_cast<std::size_t>(t + 4)] *
             x[mirror_index(2 * k + t, x.size())];
    }
    for (std::ptrdiff_t t = -3; t <= 3; ++t) {
      high += f.analysis_high[static_cast<std::size_t>(t + 3)] *
              x[mirror_index(2 * k + 1 + t, x.size())];
    }
    EXPECT_EQ(y[static_cast<std::size_t>(k)], low >> 8) << k;
    EXPECT_EQ(y[static_cast<std::size_t>(4 + k)], high >> 8) << k;
  }
}

TEST(FirFixedCoeffs, FracBitsOutsideFixedRangeThrow) {
  // The taps are common::Fixed values, so the fixed FIR method takes the
  // same 0..60 fractional bits as the fixed lifting method.
  for (const int frac_bits : {-1, 61, 64}) {
    EXPECT_THROW((void)Dwt97FirFixedCoeffs::rounded(frac_bits),
                 std::invalid_argument)
        << frac_bits;
    for (const Method m : {Method::kFirFixed, Method::kLiftingFixed}) {
      Image img(8, 8, 1.0);
      EXPECT_THROW(dwt2d_forward(m, img, 1, frac_bits), std::invalid_argument)
          << to_string(m) << " frac_bits=" << frac_bits;
    }
  }
}

}  // namespace
}  // namespace dwt::dsp
