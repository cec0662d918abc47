#include "hw/dwt2d_system.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/registry.hpp"
#include "dsp/dwt2d.hpp"
#include "dsp/image_gen.hpp"

namespace dwt::hw {
namespace {

/// A level-shifted still-tone plane: integer pixels for the integer core.
dsp::Plane<std::int32_t> shifted_plane(std::size_t w, std::size_t h,
                                       std::uint64_t seed) {
  return dsp::to_int32_plane(dsp::make_still_tone_image(w, h, seed),
                             /*offset=*/128.0);
}

TEST(Dwt2dSystem, OneOctaveMatchesSoftwareTransform) {
  dsp::Plane<std::int32_t> hw_plane = shifted_plane(32, 32, 11);
  dsp::Plane<std::int32_t> sw_plane = hw_plane;
  Dwt2dSystem system(DesignId::kDesign2);
  const Dwt2dRunStats stats = system.transform(hw_plane.view(), 1);
  (void)dsp::dwt2d_forward(dsp::Method::kLiftingFixed, sw_plane.view(), 1);
  EXPECT_EQ(hw_plane.data(), sw_plane.data());
  EXPECT_EQ(stats.line_passes, 64u);  // 32 rows + 32 columns
  EXPECT_GT(stats.total_cycles, 32u * 32u / 2u);
}

TEST(Dwt2dSystem, MultiOctaveWithWidenedCore) {
  dsp::Plane<std::int32_t> hw_plane = shifted_plane(32, 32, 12);
  dsp::Plane<std::int32_t> sw_plane = hw_plane;
  Dwt2dSystem system(DesignId::kDesign3, /*max_octaves=*/3);
  (void)system.transform(hw_plane.view(), 3);
  (void)dsp::dwt2d_forward(dsp::Method::kLiftingFixed, sw_plane.view(), 3);
  EXPECT_EQ(hw_plane.data(), sw_plane.data());
}

TEST(Dwt2dSystem, CycleAccountingScalesWithImage) {
  Dwt2dSystem system(DesignId::kDesign2);
  dsp::Plane<std::int32_t> small = shifted_plane(16, 16, 1);
  dsp::Plane<std::int32_t> large = shifted_plane(32, 32, 1);
  const auto s = system.transform(small.view(), 1);
  const auto l = system.transform(large.view(), 1);
  EXPECT_GT(l.total_cycles, 2 * s.total_cycles);
}

TEST(Dwt2dSystem, ThroughputMetricConsistent) {
  Dwt2dRunStats stats;
  stats.total_cycles = 150000;
  EXPECT_NEAR(stats.milliseconds_at(15.0), 10.0, 1e-9);
  EXPECT_NEAR(stats.milliseconds_at(150.0), 1.0, 1e-9);
}

TEST(Dwt2dSystem, RejectsBadOctaves) {
  Dwt2dSystem system(DesignId::kDesign2);
  dsp::Plane<std::int32_t> img = shifted_plane(16, 16, 2);
  EXPECT_THROW(system.transform(img.view(), 0), std::invalid_argument);
  dsp::Plane<std::int32_t> empty(0, 18);
  EXPECT_THROW(system.transform(empty.view(), 1), std::invalid_argument);
}

TEST(Dwt2dSystem, OddDimensionsMatchSoftwareTransform) {
  dsp::Plane<std::int32_t> hw_plane = shifted_plane(17, 13, 41);
  dsp::Plane<std::int32_t> sw_plane = hw_plane;
  Dwt2dSystem system(DesignId::kDesign2, /*max_octaves=*/2);
  (void)system.transform(hw_plane.view(), 2);
  (void)dsp::dwt2d_forward(dsp::Method::kLiftingFixed, sw_plane.view(), 2);
  EXPECT_EQ(hw_plane.data(), sw_plane.data());
}

TEST(Dwt2dSystem, PipelinedCoreSameResultDifferentLatency) {
  dsp::Plane<std::int32_t> a = shifted_plane(16, 16, 5);
  dsp::Plane<std::int32_t> b = a;
  Dwt2dSystem d2(DesignId::kDesign2);
  Dwt2dSystem d5(DesignId::kDesign5);
  (void)d2.transform(a.view(), 1);
  const auto stats5 = d5.transform(b.view(), 1);
  EXPECT_EQ(a.data(), b.data());
  // The deeper pipeline flushes more cycles per line.
  EXPECT_GT(stats5.total_cycles, 0u);
}

// The frame memory is a window of a larger plane (a tile): the system lifts
// it in place on either line engine, exactly as dsp's int32 entry point
// does, and leaves every sample outside it alone.
TEST(Dwt2dSystem, TransformsAWindowInPlace) {
  const dsp::Plane<std::int32_t> source = shifted_plane(64, 48, 23);
  const auto window = [](dsp::Plane<std::int32_t>& p) {
    return p.view().window(5, 3, 37, 29);
  };
  dsp::Plane<std::int32_t> expected = source;
  (void)dsp::dwt2d_forward(dsp::Method::kLiftingFixed, window(expected), 2);
  core::BackendRequest req;
  req.design = DesignId::kDesign3;
  req.max_octaves = 2;
  for (const char* engine : {"rtl-interpreted", "rtl-compiled"}) {
    Dwt2dSystem system = core::find_backend(engine)->make_2d_session(req);
    dsp::Plane<std::int32_t> plane = source;
    const Dwt2dRunStats stats = system.transform(window(plane), 2);
    EXPECT_EQ(stats.line_passes, 29u + 37u + 15u + 19u) << engine;
    for (std::size_t y = 0; y < plane.height(); ++y) {
      for (std::size_t x = 0; x < plane.width(); ++x) {
        const bool inside = x >= 5 && x < 5 + 37 && y >= 3 && y < 3 + 29;
        ASSERT_EQ(plane.at(x, y), inside ? expected.at(x, y) : source.at(x, y))
            << engine << " at (" << x << ", " << y << ")";
      }
    }
  }
}

}  // namespace
}  // namespace dwt::hw
