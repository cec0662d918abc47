// Arbitrary-dimension coverage: every signal length 1..33 (both parities)
// through the dsp models and the hardware stream runners on all five
// designs, odd 2-D planes through the transforms, the codec, and the tile
// pipeline -- including the 129x97 acceptance image.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "codec/codec.hpp"
#include "common/rng.hpp"
#include "dsp/dwt1d.hpp"
#include "dsp/dwt2d.hpp"
#include "dsp/dwt97_lifting_fixed.hpp"
#include "dsp/image_gen.hpp"
#include "dsp/lifting_ladder.hpp"
#include "dsp/metrics.hpp"
#include "hw/designs.hpp"
#include "hw/dwt2d_system.hpp"
#include "hw/inverse_lifting_datapath.hpp"
#include "hw/lifting53_datapath.hpp"
#include "hw/stream_runner.hpp"
#include "hw/tile_scheduler.hpp"
#include "rtl/compiled/batch_fault.hpp"
#include "rtl/compiled/tape.hpp"
#include "rtl/simulator.hpp"
#include "support/lines.hpp"

namespace dwt {
namespace {

std::vector<std::int64_t> random_samples(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::int64_t> x(n);
  for (auto& v : x) v = rng.uniform(-128, 127);
  return x;
}

// Natural-image samples stay inside the paper's section-3.1 register
// envelopes, which the paper-width designs require for bit-true operation
// (full-range random data can clamp; see test_lifting_datapath.cpp).
std::vector<std::int64_t> image_samples(std::size_t n, std::uint64_t seed) {
  const dsp::Image img =
      dsp::make_still_tone_image(128, (n + 127) / 128, seed);
  std::vector<std::int64_t> out;
  out.reserve(n);
  for (const double v : img.data()) {
    if (out.size() == n) break;
    out.push_back(static_cast<std::int64_t>(std::llround(v)) - 128);
  }
  return out;
}

// --- 1-D: every length 1..33 on every design, hw vs dsp bit-exact ---------

class OddLengthAllDesigns : public ::testing::TestWithParam<hw::DesignId> {};

TEST_P(OddLengthAllDesigns, StreamMatchesSoftwareForEveryLength) {
  const hw::BuiltDatapath dp = hw::build_design(GetParam());
  rtl::Simulator sim(dp.netlist);
  const auto c = dsp::LiftingFixedCoeffs::rounded(8);
  for (std::size_t n = 1; n <= 33; ++n) {
    const auto x = image_samples(n, 100 + n);
    const hw::StreamResult hwres = hw::run_stream(dp, sim, x);
    const dsp::LiftingTrace swres = dsp::lifting97_forward_fixed_trace(x, c);
    EXPECT_EQ(hwres.low, swres.low) << "n=" << n;
    EXPECT_EQ(hwres.high, swres.high) << "n=" << n;
    EXPECT_EQ(hwres.low.size(), (n + 1) / 2) << "n=" << n;
    EXPECT_EQ(hwres.high.size(), n / 2) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, OddLengthAllDesigns,
    ::testing::Values(hw::DesignId::kDesign1, hw::DesignId::kDesign2,
                      hw::DesignId::kDesign3, hw::DesignId::kDesign4,
                      hw::DesignId::kDesign5),
    [](const auto& info) {
      return "design" + std::to_string(static_cast<int>(info.param) + 1);
    });

TEST(OddLength, Stream53MatchesSoftwareForEveryLength) {
  const hw::BuiltDatapath53 dp = hw::build_lifting53_datapath({});
  rtl::Simulator sim(dp.netlist);
  for (std::size_t n = 1; n <= 33; ++n) {
    const auto x = random_samples(n, 200 + n);
    const hw::StreamResult hwres = hw::run_stream53(dp, sim, x);
    const auto swres = test::forward_bands(
        dsp::LiftingLadder(dsp::reversible53_steps(), false), x);
    EXPECT_EQ(hwres.low, swres.low) << "n=" << n;
    EXPECT_EQ(hwres.high, swres.high) << "n=" << n;
  }
}

TEST(OddLength, BatchLanesMatchInterpretedStreamOnOddSignal) {
  const hw::BuiltDatapath dp = hw::build_design(hw::DesignId::kDesign2);
  rtl::Simulator ref(dp.netlist);
  const auto x = random_samples(27, 42);
  const hw::StreamResult golden = hw::run_stream(dp, ref, x);
  rtl::compiled::BatchFaultSession session(rtl::compiled::compile(dp.netlist));
  const auto lanes = hw::run_stream_batch(dp, session, x, /*lanes=*/4);
  ASSERT_EQ(lanes.size(), 4u);
  for (const hw::StreamResult& lane : lanes) {
    EXPECT_EQ(lane.low, golden.low);
    EXPECT_EQ(lane.high, golden.high);
  }
}

TEST(OddLength, InverseStreamAcceptsCeilFloorSubbands) {
  const hw::BuiltInverseDatapath dp = hw::build_inverse_lifting_datapath({});
  rtl::Simulator sim(dp.netlist);
  const auto c = dsp::LiftingFixedCoeffs::rounded(8);
  // Interior samples must match the software inverse (the harness's tail
  // boundary convention differs in the last window, as in the even tests).
  for (const std::size_t n : {9u, 21u, 33u}) {
    const auto x = image_samples(n, 300 + n);
    const auto sub = dsp::lifting97_forward_fixed_trace(x, c);
    ASSERT_EQ(sub.low.size(), sub.high.size() + 1);
    const auto sw = test::inverse_line(
        dsp::LiftingLadder(dsp::fixed97_steps(c), true), sub.low, sub.high);
    const hw::InverseStreamResult hwres =
        hw::run_stream_inverse(dp, sim, sub.low, sub.high);
    ASSERT_EQ(hwres.samples.size(), sw.size()) << "n=" << n;
    for (std::size_t i = 0; i + 4 < sw.size(); ++i) {
      EXPECT_EQ(hwres.samples[i], sw[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(OddLength, EveryLengthRoundTripsThroughEveryMethod) {
  for (std::size_t n = 1; n <= 33; ++n) {
    const auto xi = random_samples(n, 400 + n);
    const std::vector<double> x(xi.begin(), xi.end());
    for (const dsp::Method m :
         {dsp::Method::kFirFloat, dsp::Method::kLiftingFloat}) {
      const test::Bands<double> s = test::forward_row(m, x);
      EXPECT_EQ(s.low.size(), (n + 1) / 2);
      EXPECT_EQ(s.high.size(), n / 2);
      const std::vector<double> xr = test::inverse_row(m, s.low, s.high);
      ASSERT_EQ(xr.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(xr[i], x[i], 1e-9)
            << dsp::to_string(m) << " n=" << n << " i=" << i;
      }
    }
    // Reversible 5/3: exact integer reconstruction at every length.
    const auto s53 = test::forward_bands(
        dsp::LiftingLadder(dsp::reversible53_steps(), false), xi);
    EXPECT_EQ(test::inverse_line(
                  dsp::LiftingLadder(dsp::reversible53_steps(), true),
                  s53.low, s53.high),
              xi)
        << "n=" << n;
  }
}

// --- 2-D: all width/height parities through the transforms and codec ------

TEST(OddDimensions, AllParityPlanesRoundTripLossless53) {
  for (const std::size_t w : {1u, 2u, 3u, 8u, 13u, 32u, 33u}) {
    for (const std::size_t h : {1u, 2u, 5u, 8u, 21u, 32u, 33u}) {
      dsp::Image img = dsp::make_still_tone_image(w, h, w * 64 + h);
      dsp::round_coefficients(img);
      const dsp::Image original = img;
      dsp::level_shift_forward(img);
      dsp::dwt2d_forward(dsp::Method::kReversible53, img, 2);
      dsp::dwt2d_inverse(dsp::Method::kReversible53, img, 2);
      dsp::level_shift_inverse(img);
      EXPECT_EQ(img.data(), original.data()) << w << "x" << h;
    }
  }
}

TEST(OddDimensions, CodecLossless53RoundTripsOddImage) {
  dsp::Image original = dsp::make_still_tone_image(45, 27, 11);
  dsp::round_coefficients(original);
  codec::EncodeOptions opt;
  opt.mode = codec::CodecMode::kLossless53;
  opt.octaves = 3;
  const codec::EncodedImage enc = codec::encode_image(original, opt);
  const dsp::Image decoded = codec::decode_image(enc.bytes);
  ASSERT_EQ(decoded.width(), original.width());
  ASSERT_EQ(decoded.height(), original.height());
  EXPECT_EQ(decoded.data(), original.data());
}

// --- The acceptance image: 129 x 97 ---------------------------------------

TEST(OddDimensions, Acceptance129x97LosslessAndQuantized) {
  dsp::Image original = dsp::make_still_tone_image(129, 97, 2005);
  dsp::round_coefficients(original);

  // Lossless through the reversible 5/3 codec path.
  codec::EncodeOptions lossless;
  lossless.mode = codec::CodecMode::kLossless53;
  lossless.octaves = 3;
  const dsp::Image dec53 =
      codec::decode_image(codec::encode_image(original, lossless).bytes);
  EXPECT_EQ(dec53.data(), original.data());

  // Quantized 9/7: the odd-size plane must not cost more than 1 dB against
  // the even-size crop of the same content at the same quantizer step.
  codec::EncodeOptions lossy;
  lossy.mode = codec::CodecMode::kLossy97;
  lossy.octaves = 3;
  lossy.base_step = 4.0;
  const dsp::Image dec97 =
      codec::decode_image(codec::encode_image(original, lossy).bytes);
  const double psnr_odd = dsp::psnr(original, dec97);

  dsp::Image even(128, 96);
  for (std::size_t y = 0; y < even.height(); ++y) {
    std::copy_n(&original.at(0, y), even.width(), &even.at(0, y));
  }
  const dsp::Image dec_even =
      codec::decode_image(codec::encode_image(even, lossy).bytes);
  const double psnr_even = dsp::psnr(even, dec_even);
  EXPECT_GT(psnr_odd, 30.0);
  EXPECT_GT(psnr_odd, psnr_even - 1.0)
      << "odd=" << psnr_odd << " even=" << psnr_even;
}

TEST(OddDimensions, Acceptance129x97TileParallelMatchesSingleStream) {
  dsp::Image plane = dsp::make_still_tone_image(129, 97, 7);
  dsp::level_shift_forward(plane);
  dsp::round_coefficients(plane);
  const dsp::Image source = plane;

  // Single-stream runner: one tile covering the whole plane.
  hw::TileOptions whole;
  whole.tile_w = 129;
  whole.tile_h = 97;
  whole.octaves = 2;
  whole.threads = 1;
  dsp::Image single = source;
  (void)hw::tile_forward(single, whole);
  dsp::Image plain = source;
  dsp::dwt2d_forward(dsp::Method::kLiftingFixed, plain, 2);
  EXPECT_EQ(single.data(), plain.data());

  // Tile-parallel runner: byte-identical at every thread count.
  hw::TileOptions tiled;
  tiled.octaves = 2;
  tiled.threads = 1;
  dsp::Image ref = source;
  (void)hw::tile_forward(ref, tiled);
  for (const unsigned threads : {2u, 8u}) {
    tiled.threads = threads;
    dsp::Image out = source;
    (void)hw::tile_forward(out, tiled);
    EXPECT_EQ(out.data(), ref.data()) << "threads=" << threads;
  }

  // And the tiled plane reconstructs (fixed-point truncation noise only,
  // the paper's ~37 dB regime).
  tiled.threads = 0;
  dsp::Image back = ref;
  (void)hw::tile_inverse(back, tiled);
  EXPECT_GT(dsp::psnr(source, back), 30.0);
}

}  // namespace
}  // namespace dwt
