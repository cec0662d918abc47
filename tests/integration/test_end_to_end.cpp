// Integration tests across the full stack: software transform quality
// (paper Table 2 shape), hardware/software bit-equality through the 2D
// system, and the explorer's reproduction of the paper's conclusions.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/dwt2d.hpp"
#include "dsp/image_gen.hpp"
#include "dsp/metrics.hpp"
#include "explore/explorer.hpp"
#include "explore/pareto.hpp"
#include "hw/dwt2d_system.hpp"

namespace dwt {
namespace {

/// The Table 2 experiment: forward transform, coefficient rounding (the
/// integer storage a hardware pipeline implies), inverse transform, PSNR.
double table2_psnr(dsp::Method method, const dsp::Image& original,
                   int octaves) {
  dsp::Image plane = original;
  dsp::level_shift_forward(plane);
  dsp::dwt2d_forward(method, plane, octaves);
  dsp::round_coefficients(plane);
  dsp::dwt2d_inverse(method, plane, octaves);
  dsp::level_shift_inverse(plane);
  return dsp::psnr(original, dsp::clamped_u8(plane));
}

TEST(EndToEnd, Table2ShapeHolds) {
  // The paper's Table 2 rows all run an integer datapath; "floating point"
  // refers to the multiplier constants (kFirHwFloat / kLiftingHwFloat).
  const dsp::Image tile = dsp::make_still_tone_image(128, 128, 2005);
  const double fir_float = table2_psnr(dsp::Method::kFirHwFloat, tile, 3);
  const double fir_fixed = table2_psnr(dsp::Method::kFirFixed, tile, 3);
  const double lift_float = table2_psnr(dsp::Method::kLiftingHwFloat, tile, 3);
  const double lift_fixed = table2_psnr(dsp::Method::kLiftingFixed, tile, 3);
  // All four methods land in the same quality regime (paper: ~37 dB).
  for (const double p : {fir_float, fir_fixed, lift_float, lift_fixed}) {
    EXPECT_GT(p, 30.0);
    EXPECT_LT(p, 65.0);
  }
  // Integer-rounded coefficients cost less than 1 dB against the ideal
  // constants (the paper's headline Table 2 conclusion)...
  EXPECT_LT(fir_float - fir_fixed, 1.0);
  EXPECT_LT(lift_float - lift_fixed, 1.0);
  // ...and the FIR and lifting pipelines stay within 1 dB of each other
  // (paper: 37.48 vs 36.97).
  EXPECT_LT(std::abs(fir_fixed - lift_fixed), 1.0);
}

TEST(EndToEnd, HardwareTransformCompressesLikeSoftware) {
  // Run the full 2D hardware system, quantize, reconstruct in software,
  // and require photographic quality.
  const std::size_t n = 32;
  const dsp::Image original = dsp::make_still_tone_image(n, n, 42);
  dsp::Plane<std::int32_t> plane =
      dsp::to_int32_plane(original, /*offset=*/128.0);
  hw::Dwt2dSystem system(hw::DesignId::kDesign3, /*max_octaves=*/2);
  (void)system.transform(plane.view(), 2);
  (void)dsp::dwt2d_inverse(dsp::Method::kLiftingFixed, plane.view(), 2);
  dsp::Image back = dsp::to_image(plane);
  dsp::level_shift_inverse(back);
  EXPECT_GT(dsp::psnr(original, dsp::clamped_u8(back)), 35.0);
}

TEST(EndToEnd, ParetoFrontContainsPipelinedDesigns) {
  explore::Explorer ex;
  const auto evals = ex.evaluate_all();
  std::vector<explore::TradeoffPoint> points;
  for (const auto& e : evals) {
    points.push_back({e.spec.name,
                      static_cast<double>(e.report.logic_elements),
                      1000.0 / e.report.fmax_mhz, e.report.power_mw});
  }
  const auto front = pareto_front(points);
  // Design 2 (smallest) and design 3 (fastest) must be trade-off points.
  auto on_front = [&](std::size_t i) {
    return std::find(front.begin(), front.end(), i) != front.end();
  };
  EXPECT_TRUE(on_front(1));
  EXPECT_TRUE(on_front(2));
  // Design 4 is dominated in our model (design 2 is smaller, faster-or-
  // equal, and lower power).
  EXPECT_GE(front.size(), 2u);
}

TEST(EndToEnd, ThroughputRanksFollowFmax) {
  // Time to transform a 64x64 tile = cycles / fmax: the pipelined core
  // wins despite deeper latency.
  explore::Explorer ex;
  const auto d2 = ex.evaluate(hw::design_spec(hw::DesignId::kDesign2));
  const auto d3 = ex.evaluate(hw::design_spec(hw::DesignId::kDesign3));
  hw::Dwt2dSystem s2(hw::DesignId::kDesign2);
  hw::Dwt2dSystem s3(hw::DesignId::kDesign3);
  dsp::Plane<std::int32_t> a = dsp::to_int32_plane(
      dsp::make_still_tone_image(64, 64, 3), /*offset=*/128.0);
  dsp::Plane<std::int32_t> b = a;
  const auto st2 = s2.transform(a.view(), 1);
  const auto st3 = s3.transform(b.view(), 1);
  const double ms2 = st2.milliseconds_at(d2.report.fmax_mhz);
  const double ms3 = st3.milliseconds_at(d3.report.fmax_mhz);
  EXPECT_LT(ms3, ms2);
}

}  // namespace
}  // namespace dwt
