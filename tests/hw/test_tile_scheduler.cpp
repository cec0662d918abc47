#include "hw/tile_scheduler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "dsp/dwt2d.hpp"
#include "dsp/image_gen.hpp"

namespace dwt::hw {
namespace {

dsp::Image shifted_image(std::size_t w, std::size_t h, std::uint64_t seed) {
  dsp::Image img = dsp::make_still_tone_image(w, h, seed);
  dsp::level_shift_forward(img);
  dsp::round_coefficients(img);
  return img;
}

TEST(TileGrid, CoversImageExactlyOnce) {
  const TileGrid tiles(129, 97, 64, 64);
  ASSERT_EQ(tiles.size(), 6u);  // 3 columns (64+64+1) x 2 rows (64+33)
  std::vector<int> hits(129 * 97, 0);
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    const TileRect t = tiles[i];
    EXPECT_GE(t.w, 1u);
    EXPECT_GE(t.h, 1u);
    for (std::size_t y = 0; y < t.h; ++y) {
      for (std::size_t x = 0; x < t.w; ++x) {
        ++hits[(t.y0 + y) * 129 + (t.x0 + x)];
      }
    }
  }
  for (const int hit : hits) EXPECT_EQ(hit, 1);
}

TEST(TileGrid, RejectsZeroDimensions) {
  EXPECT_THROW(TileGrid(0, 8, 4, 4), std::invalid_argument);
  EXPECT_THROW(TileGrid(8, 8, 0, 4), std::invalid_argument);
}

/// This process's peak resident set size (VmHWM) in bytes, or -1.
long long peak_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6)) * 1024;
  }
  return -1;
}

TEST(TileGrid, PixelTilesCostNoMemoryPerTile) {
  // Two million 1 x 1 tiles, as any dwt97d client may ask for.  A
  // one-sample tile lifts to itself.  Neither the grid nor the cycle
  // accounting may keep a record per tile: a stored grid and per-tile stats
  // would cost 48 bytes a tile, about 96 MiB here.
  dsp::Plane<std::int32_t> plane(2048, 1024);
  for (std::size_t i = 0; i < plane.data().size(); ++i) {
    plane.data()[i] = static_cast<std::int32_t>(i % 509) - 254;
  }
  const dsp::Plane<std::int32_t> source = plane;
  const long long before = peak_rss_bytes();
  ASSERT_GT(before, 0) << "VmHWM missing from /proc/self/status";

  TileOptions opt;
  opt.tile_w = 1;
  opt.tile_h = 1;
  opt.octaves = 2;
  opt.threads = 2;
  const TileStats stats = tile_forward(plane, opt);
  const long long grown = peak_rss_bytes() - before;
  EXPECT_EQ(stats.tiles, 2048u * 1024u);
  EXPECT_EQ(plane.data(), source.data());
  EXPECT_LT(grown, 16LL << 20) << "VmHWM grew by " << (grown >> 20)
                               << " MiB";
}

TEST(TileScheduler, DeterministicAcrossThreadCounts) {
  const dsp::Image source = shifted_image(129, 97, 5);
  TileOptions opt;
  opt.octaves = 2;

  opt.threads = 1;
  dsp::Image one = source;
  const TileStats s1 = tile_forward(one, opt);
  EXPECT_EQ(s1.tiles, 6u);
  EXPECT_EQ(s1.threads_used, 1u);

  for (const unsigned threads : {2u, 8u}) {
    opt.threads = threads;
    dsp::Image many = source;
    const TileStats s = tile_forward(many, opt);
    EXPECT_EQ(s.tiles, s1.tiles);
    EXPECT_EQ(many.data(), one.data()) << "threads=" << threads;
  }
}

TEST(TileScheduler, SingleTileMatchesPlainTransform) {
  // A tile covering the whole image degenerates to the plain 2-D transform.
  const dsp::Image source = shifted_image(33, 21, 7);
  TileOptions opt;
  opt.tile_w = 64;
  opt.tile_h = 64;
  opt.octaves = 2;
  dsp::Image tiled = source;
  (void)tile_forward(tiled, opt);
  dsp::Image plain = source;
  dsp::dwt2d_forward(dsp::Method::kLiftingFixed, plain, 2);
  EXPECT_EQ(tiled.data(), plain.data());
}

TEST(TileScheduler, OddTilesRoundTripLossless53) {
  // 5/3 is reversible, so tiling with odd image and odd tile sizes must
  // reconstruct exactly.
  const dsp::Image source = shifted_image(45, 31, 9);
  TileOptions opt;
  opt.tile_w = 17;
  opt.tile_h = 13;
  opt.octaves = 3;
  opt.method = dsp::Method::kReversible53;
  dsp::Image plane = source;
  (void)tile_forward(plane, opt);
  EXPECT_NE(plane.data(), source.data());  // something happened
  (void)tile_inverse(plane, opt);
  EXPECT_EQ(plane.data(), source.data());  // bit exact
}

TEST(TileScheduler, HardwareBackendMatchesSoftwareFixedPoint) {
  const dsp::Image source = shifted_image(37, 29, 11);
  TileOptions opt;
  opt.tile_w = 16;
  opt.tile_h = 16;
  opt.octaves = 2;
  opt.backend = core::find_backend("rtl-interpreted");
  ASSERT_NE(opt.backend, nullptr);
  opt.threads = 2;
  dsp::Image hw_plane = source;
  const TileStats stats = tile_forward(hw_plane, opt);
  EXPECT_GT(stats.total_cycles, 0u);
  EXPECT_GT(stats.line_passes, 0u);

  opt.backend = nullptr;
  dsp::Image sw_plane = source;
  (void)tile_forward(sw_plane, opt);
  EXPECT_EQ(hw_plane.data(), sw_plane.data());
}

TEST(TileScheduler, RegistryBackendsAgreeOnTiles) {
  // Every registry backend must tile identically to the in-thread path
  // (`backend == nullptr`) with the method it computes -- kLiftingFixed
  // for the bit-exact engines, kLiftingFloat for software-float -- cycle
  // accounting aside.  The integer-valued ones must agree on an int32
  // plane too.
  const dsp::Image source = shifted_image(23, 19, 17);
  TileOptions opt;
  opt.tile_w = 8;
  opt.tile_h = 8;
  opt.octaves = 2;
  opt.threads = 2;
  dsp::Image fixed_reference = source;
  (void)tile_forward(fixed_reference, opt);
  TileOptions float_opt = opt;
  float_opt.method = dsp::Method::kLiftingFloat;
  dsp::Image float_reference = source;
  (void)tile_forward(float_reference, float_opt);
  EXPECT_NE(float_reference.data(), fixed_reference.data());
  for (const core::ExecutionBackend& backend : core::all_backends()) {
    const core::BackendCaps caps = backend.caps();
    opt.backend = &backend;
    const dsp::Image& reference =
        caps.bit_exact ? fixed_reference : float_reference;
    dsp::Image plane = source;
    const TileStats stats = tile_forward(plane, opt);
    EXPECT_EQ(plane.data(), reference.data()) << backend.name();
    if (caps.gate_level) {
      EXPECT_GT(stats.total_cycles, 0u) << backend.name();
    } else {
      EXPECT_EQ(stats.total_cycles, 0u) << backend.name();
    }
    EXPECT_EQ(integer_valued(opt), caps.bit_exact) << backend.name();
    if (!integer_valued(opt)) continue;
    dsp::Plane<std::int32_t> ints = dsp::to_int32_plane(source);
    const TileStats int_stats = tile_forward(ints, opt);
    EXPECT_EQ(dsp::to_image(ints).data(), reference.data()) << backend.name();
    EXPECT_EQ(int_stats.total_cycles, stats.total_cycles) << backend.name();
    EXPECT_EQ(int_stats.line_passes, stats.line_passes) << backend.name();
  }
}

// The one-pass round trip against the staged composition it replaces.
enum class Payload { kP5, kP2, kRaw8, kP5Maxval100 };

/// A w x h frame as a request payload: a PGM document (P5, P2 with a
/// comment, or P5 at maxval 100 with its pixels scaled down) or the raw
/// pixels.
std::vector<std::uint8_t> payload(Payload kind, std::size_t w, std::size_t h,
                                  std::uint64_t seed) {
  const dsp::Image img = dsp::make_still_tone_image(w, h, seed);
  std::vector<std::uint8_t> px;
  for (const double v : img.data()) {
    const auto p = static_cast<int>(std::lround(v));
    px.push_back(static_cast<std::uint8_t>(
        kind == Payload::kP5Maxval100 ? p * 100 / 255 : p));
  }
  if (kind == Payload::kRaw8) return px;
  const std::string dims = std::to_string(w) + " " + std::to_string(h);
  std::string doc;
  if (kind == Payload::kP2) {
    doc = "P2\n# staged\n" + dims + "\n255\n";
    for (const std::uint8_t v : px) doc += std::to_string(v) + "\n";
  } else {
    doc = "P5\n" + dims +
          (kind == Payload::kP5Maxval100 ? "\n100\n" : "\n255\n");
    doc.append(px.begin(), px.end());
  }
  return {doc.begin(), doc.end()};
}

/// Checks that the bytes form equals the staged composition -- parse_pgm
/// (u8_plane for raw pixels), tile_forward, tile_inverse, render_pgm, on the
/// Image forms for an engine that is not integer-valued -- bytes and stats.
void expect_staged_bytes(Payload kind, std::size_t w, std::size_t h,
                         const TileOptions& opt) {
  const std::vector<std::uint8_t> bytes = payload(kind, w, h, w * 7 + h);
  std::vector<std::uint8_t> decoded;
  const dsp::PlaneView<const std::uint8_t> pixels =
      kind == Payload::kRaw8 ? dsp::u8_view(bytes, w, h)
                             : dsp::pgm_pixels(bytes, "frame", &decoded);
  const RoundTrip rt = tile_round_trip(pixels, opt);

  const dsp::Plane<std::int32_t> shifted =
      kind == Payload::kRaw8
          ? dsp::u8_plane(dsp::u8_view(bytes, w, h), dsp::kLevelShift)
          : dsp::parse_pgm(bytes, "frame", dsp::kLevelShift);
  TileOptions inv = opt;
  if (inv.backend != nullptr && !inv.backend->caps().inverse_2d) {
    inv.backend = nullptr;
  }
  TileStats fwd;
  std::vector<std::uint8_t> staged;
  if (integer_valued(opt)) {
    dsp::Plane<std::int32_t> plane = shifted;
    fwd = tile_forward(plane, opt);
    (void)tile_inverse(plane, inv);
    staged = dsp::render_pgm(plane, dsp::kLevelShift);
  } else {
    dsp::Image img = dsp::to_image(shifted);
    fwd = tile_forward(img, opt);
    (void)tile_inverse(img, inv);
    staged = dsp::render_pgm(img, dsp::kLevelShift);
  }
  const std::string where =
      std::to_string(w) + "x" + std::to_string(h) + " payload " +
      std::to_string(static_cast<int>(kind)) + " tile " +
      std::to_string(opt.tile_w) + " octaves " + std::to_string(opt.octaves) +
      " threads " + std::to_string(opt.threads) + " backend " +
      (opt.backend != nullptr ? std::string(opt.backend->name()) : "default");
  EXPECT_EQ(rt.pgm, staged) << where;
  EXPECT_EQ(rt.stats.tiles, fwd.tiles) << where;
  EXPECT_EQ(rt.stats.threads_used, fwd.threads_used) << where;
  EXPECT_EQ(rt.stats.total_cycles, fwd.total_cycles) << where;
  EXPECT_EQ(rt.stats.line_passes, fwd.line_passes) << where;
}

constexpr std::pair<std::size_t, std::size_t> kFrames[] = {
    {1, 1}, {33, 17}, {129, 97}, {130, 67}};
constexpr Payload kPayloads[] = {Payload::kP5, Payload::kP2, Payload::kRaw8,
                                 Payload::kP5Maxval100};

TEST(TileScheduler, BytesRoundTripMatchesStagedOnSoftwareEngines) {
  // Every frame x tile x thread count per engine; the payload and the
  // octave count (1..6) cycle, so each engine meets every one of them.
  for (const char* name : {"", "software-fixed", "software-float"}) {
    TileOptions opt;
    opt.backend = *name != '\0' ? core::find_backend(name) : nullptr;
    std::size_t i = 0;
    for (const auto& [w, h] : kFrames) {
      for (const std::size_t tile : {1u, 7u, 64u, 4096u}) {
        for (const unsigned threads : {1u, 3u}) {
          opt.tile_w = opt.tile_h = tile;
          opt.threads = threads;
          opt.octaves = static_cast<int>(i % 6) + 1;
          expect_staged_bytes(kPayloads[i % 4], w, h, opt);
          ++i;
        }
      }
    }
  }
}

TEST(TileScheduler, BytesRoundTripMatchesStagedOnNetlistEngines) {
  // The compiled Design 3 core forwards every frame in its own figure-4
  // sessions and inverts through the software path.
  TileOptions opt;
  opt.backend = core::find_backend("rtl-compiled");
  ASSERT_NE(opt.backend, nullptr);
  opt.design = DesignId::kDesign3;
  std::size_t i = 0;
  for (const auto& [w, h] : kFrames) {
    for (const std::size_t tile : {7u, 64u}) {
      opt.tile_w = opt.tile_h = tile;
      opt.threads = i % 2 == 0 ? 1 : 3;
      opt.octaves = static_cast<int>(i % 6) + 1;
      expect_staged_bytes(kPayloads[i % 4], w, h, opt);
      ++i;
    }
  }
  // The APEX-mapped netlist on the transport-delay simulator: one small
  // frame.
  opt.backend = core::find_backend("fpga-mapped");
  ASSERT_NE(opt.backend, nullptr);
  opt.tile_w = opt.tile_h = 7;
  opt.threads = 3;
  opt.octaves = 2;
  expect_staged_bytes(Payload::kP5, 33, 17, opt);
}

TEST(TileScheduler, BytesRoundTripPassesEngineErrorsOn) {
  const std::vector<std::uint8_t> bytes = payload(Payload::kRaw8, 16, 16, 3);
  const dsp::PlaneView<const std::uint8_t> pixels = dsp::u8_view(bytes, 16, 16);
  TileOptions opt;
  opt.octaves = 0;
  EXPECT_THROW((void)tile_round_trip(pixels, opt), std::invalid_argument);
  opt = TileOptions{};
  opt.tile_w = 0;
  EXPECT_THROW((void)tile_round_trip(pixels, opt), std::invalid_argument);
  opt = TileOptions{};
  opt.backend = core::find_backend("rtl-compiled");
  opt.method = dsp::Method::kReversible53;
  EXPECT_THROW((void)tile_round_trip(pixels, opt), std::invalid_argument);
}

TEST(TileScheduler, RejectsBadOptions) {
  dsp::Image img = shifted_image(16, 16, 13);
  TileOptions opt;
  opt.octaves = 0;
  EXPECT_THROW(tile_forward(img, opt), std::invalid_argument);
  opt = TileOptions{};
  opt.tile_w = 0;
  EXPECT_THROW(tile_forward(img, opt), std::invalid_argument);
  opt = TileOptions{};
  opt.backend = core::find_backend("rtl-interpreted");
  opt.method = dsp::Method::kReversible53;
  EXPECT_THROW(tile_forward(img, opt), std::invalid_argument);
  opt = TileOptions{};
  opt.backend = core::find_backend("rtl-interpreted");
  EXPECT_THROW(tile_inverse(img, opt), std::invalid_argument);
  opt = TileOptions{};
  opt.backend = core::find_backend("fpga-mapped");  // no 2-D inverse
  EXPECT_THROW(tile_inverse(img, opt), std::invalid_argument);
  dsp::Image empty;
  opt = TileOptions{};
  EXPECT_THROW(tile_forward(empty, opt), std::invalid_argument);
}

}  // namespace
}  // namespace dwt::hw
