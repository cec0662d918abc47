// Golden output bits of every software transform.  Each digest is a 64-bit
// FNV-1a hash of exact output bytes: the forward then the reconstructed
// plane of dwt2d_forward + dwt2d_inverse for each of the seven methods, and
// the codec bitstreams of both modes.  The CI `cmp` steps compare a software
// tile against a gate-level forward, and both sides invert through the same
// software inverse, so they cannot see a bit change in the software inverse,
// the float ladder (lossy codec) or the 5/3 ladder (lossless codec).  These
// digests can.
//
// The values were recorded on the per-method lifting loops and the per-line
// Image row/column copies that preceded dsp/lifting_ladder.hpp, before that
// refactor changed any file under src/; the ladder reproduces them exactly.
// Inputs are common::Rng integers (no libm call between the seed and the
// transform), so the digests do not depend on the platform's libm.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "codec/codec.hpp"
#include "common/rng.hpp"
#include "dsp/dwt2d.hpp"

namespace dwt::dsp {
namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void plane(const Image& img) {
    for (const double v : img.data()) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      u64(bits);
    }
  }
};

struct Shape {
  std::size_t w, h;
};
constexpr Shape kShapes[] = {{13, 7}, {31, 17}, {45, 33}};

Image random_plane(Shape s, std::uint64_t seed, std::int64_t lo,
                   std::int64_t hi) {
  common::Rng rng(seed);
  Image img(s.w, s.h);
  for (double& v : img.data()) v = static_cast<double>(rng.uniform(lo, hi));
  return img;
}

std::uint64_t transform_digest(Method m) {
  Fnv1a f;
  std::uint64_t seed = 1;
  for (const Shape s : kShapes) {
    for (int octaves = 1; octaves <= 3; ++octaves) {
      Image plane = random_plane(s, seed++, -128, 127);
      dwt2d_forward(m, plane, octaves);
      f.plane(plane);
      dwt2d_inverse(m, plane, octaves);
      f.plane(plane);
    }
  }
  return f.h;
}

std::uint64_t codec_digest(codec::CodecMode mode) {
  Fnv1a f;
  std::uint64_t seed = 100;
  for (const Shape s : kShapes) {
    for (int octaves = 1; octaves <= 3; ++octaves) {
      codec::EncodeOptions opt;
      opt.mode = mode;
      opt.octaves = octaves;
      const codec::EncodedImage enc =
          codec::encode_image(random_plane(s, seed++, 0, 255), opt);
      for (const std::uint8_t b : enc.bytes) f.byte(b);
    }
  }
  return f.h;
}

TEST(GoldenDigests, TransformRoundTripsAreBitExact) {
  const struct {
    Method method;
    std::uint64_t digest;
  } kGolden[] = {
      {Method::kFirFloat, 0x29ce8cbbf95b8dc7ULL},
      {Method::kFirFixed, 0xdacee549b3b6caaaULL},
      {Method::kLiftingFloat, 0x0a836a268d692613ULL},
      {Method::kLiftingFixed, 0x791a0153991ccffdULL},
      {Method::kFirHwFloat, 0xdaf83a1bd54fc886ULL},
      {Method::kLiftingHwFloat, 0x2c5b88c69a84f442ULL},
      {Method::kReversible53, 0xfeb8a6f164e00c24ULL},
  };
  for (const auto& g : kGolden) {
    EXPECT_EQ(transform_digest(g.method), g.digest)
        << to_string(g.method) << std::hex << " digest 0x"
        << transform_digest(g.method);
  }
}

TEST(GoldenDigests, CodecBitstreamsAreBitExact) {
  EXPECT_EQ(codec_digest(codec::CodecMode::kLossy97), 0xb42075807b9b3533ULL)
      << std::hex << "lossy digest 0x"
      << codec_digest(codec::CodecMode::kLossy97);
  EXPECT_EQ(codec_digest(codec::CodecMode::kLossless53), 0x793945863c794461ULL)
      << std::hex << "lossless digest 0x"
      << codec_digest(codec::CodecMode::kLossless53);
}

}  // namespace
}  // namespace dwt::dsp
