// Pins the shared lifting ladder and the strided octave sweep to references
// that do not use them: the polyphase trace model for the 1-D fixed-point
// ladder, and a naive per-line 2-D transform (the method's 1-D function on
// every row then every column, through Image::at) for dwt2d_forward and
// dwt2d_inverse.  Equality is exact, doubles included.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "dsp/dwt1d.hpp"
#include "dsp/dwt2d.hpp"
#include "dsp/dwt97_lifting_fixed.hpp"

namespace dwt::dsp {
namespace {

TEST(LiftingLadder, FixedMatchesTraceReference) {
  common::Rng rng(41);
  for (const int frac_bits : {4, 6, 8, 10, 12}) {
    const LiftingFixedCoeffs c = LiftingFixedCoeffs::rounded(frac_bits);
    for (std::size_t n = 1; n <= 130; ++n) {
      std::vector<std::int64_t> x(n);
      for (std::int64_t& v : x) v = rng.uniform(-128, 127);
      const LiftingTrace t = lifting97_forward_fixed_trace(x, c);
      const LiftSubbandsFixed s = lifting97_forward_fixed(x, c);
      EXPECT_EQ(s.low, t.low) << "frac_bits=" << frac_bits << " n=" << n;
      EXPECT_EQ(s.high, t.high) << "frac_bits=" << frac_bits << " n=" << n;
    }
  }
}

/// One line of `img`: row `i` (the first `n` columns) or column `i` (the
/// first `n` rows).
struct LineRef {
  Image& img;
  bool column;
  std::size_t i;
  double& operator[](std::size_t k) const {
    return column ? img.at(i, k) : img.at(k, i);
  }
};

void forward_line(Method m, LineRef line, std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t k = 0; k < n; ++k) x[k] = line[k];
  const Subbands1d s = dwt1d_forward(m, x);
  for (std::size_t k = 0; k < s.low.size(); ++k) line[k] = s.low[k];
  for (std::size_t k = 0; k < s.high.size(); ++k) {
    line[s.low.size() + k] = s.high[k];
  }
}

void inverse_line(Method m, LineRef line, std::size_t n) {
  const std::size_t nl = (n + 1) / 2;
  std::vector<double> low(nl), high(n - nl);
  for (std::size_t k = 0; k < nl; ++k) low[k] = line[k];
  for (std::size_t k = nl; k < n; ++k) high[k - nl] = line[k];
  const std::vector<double> x = dwt1d_inverse(m, low, high);
  for (std::size_t k = 0; k < n; ++k) line[k] = x[k];
}

void reference_forward(Method m, Image& img, int octaves) {
  std::size_t w = img.width(), h = img.height();
  for (int o = 0; o < octaves; ++o) {
    for (std::size_t y = 0; y < h; ++y) forward_line(m, {img, false, y}, w);
    for (std::size_t x = 0; x < w; ++x) forward_line(m, {img, true, x}, h);
    w = (w + 1) / 2;
    h = (h + 1) / 2;
  }
}

void reference_inverse(Method m, Image& img, int octaves) {
  std::vector<std::pair<std::size_t, std::size_t>> sizes;
  std::size_t w = img.width(), h = img.height();
  for (int o = 0; o < octaves; ++o) {
    sizes.emplace_back(w, h);
    w = (w + 1) / 2;
    h = (h + 1) / 2;
  }
  for (auto it = sizes.rbegin(); it != sizes.rend(); ++it) {
    const auto [rw, rh] = *it;
    for (std::size_t x = 0; x < rw; ++x) inverse_line(m, {img, true, x}, rh);
    for (std::size_t y = 0; y < rh; ++y) inverse_line(m, {img, false, y}, rw);
  }
}

class OctaveSweep : public ::testing::TestWithParam<Method> {};

TEST_P(OctaveSweep, MatchesPerLineReference) {
  const Method m = GetParam();
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {1, 9}, {9, 1}, {2, 2}, {17, 13}, {64, 64}};
  common::Rng rng(7);
  for (const auto& [w, h] : shapes) {
    for (int octaves = 1; octaves <= 4; ++octaves) {
      // Integral samples, then non-integral ones (the integer methods round
      // them on entry, exactly as their 1-D functions do).
      for (const bool integral : {true, false}) {
        Image plane(w, h);
        for (double& v : plane.data()) {
          v = integral ? static_cast<double>(rng.uniform(-128, 127))
                       : 255.0 * rng.uniform01() - 128.0;
        }
        Image ref = plane;
        dwt2d_forward(m, plane, octaves);
        reference_forward(m, ref, octaves);
        ASSERT_EQ(plane.data(), ref.data())
            << "forward " << w << "x" << h << " octaves=" << octaves
            << " integral=" << integral;
        dwt2d_inverse(m, plane, octaves);
        reference_inverse(m, ref, octaves);
        ASSERT_EQ(plane.data(), ref.data())
            << "inverse " << w << "x" << h << " octaves=" << octaves
            << " integral=" << integral;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LiftingMethods, OctaveSweep,
                         ::testing::Values(Method::kLiftingFloat,
                                           Method::kLiftingFixed,
                                           Method::kLiftingHwFloat,
                                           Method::kReversible53),
                         [](const auto& info) {
                           switch (info.param) {
                             case Method::kLiftingFloat: return "Float";
                             case Method::kLiftingFixed: return "Fixed";
                             case Method::kLiftingHwFloat: return "HwFloat";
                             default: return "Reversible53";
                           }
                         });

TEST(OctaveSweep, RejectsRegionLargerThanPlane) {
  Image plane(8, 6);
  for (const Method m : {Method::kLiftingFloat, Method::kLiftingFixed,
                         Method::kReversible53, Method::kFirFloat}) {
    EXPECT_THROW(dwt2d_forward_octave(m, plane, 9, 6), std::out_of_range);
    EXPECT_THROW(dwt2d_forward_octave(m, plane, 8, 7), std::out_of_range);
    EXPECT_THROW(dwt2d_inverse_octave(m, plane, 9, 6), std::out_of_range);
    EXPECT_THROW(dwt2d_inverse_octave(m, plane, 8, 7), std::out_of_range);
  }
}

}  // namespace
}  // namespace dwt::dsp
