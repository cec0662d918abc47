#include "dsp/image.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dsp/dwt2d.hpp"
#include "dsp/image_gen.hpp"
#include "hw/tile_scheduler.hpp"
#include "support/mutation.hpp"

namespace dwt::dsp {
namespace {

TEST(Image, ConstructionAndAccess) {
  Image img(4, 3, 7.0);
  EXPECT_EQ(img.width(), 4u);
  EXPECT_EQ(img.height(), 3u);
  EXPECT_EQ(img.at(3, 2), 7.0);
  img.at(1, 2) = -5.5;
  EXPECT_EQ(img.at(1, 2), -5.5);
}

TEST(Image, AtBoundsChecked) {
  Image img(4, 3);
  EXPECT_THROW((void)img.at(4, 0), std::out_of_range);
  EXPECT_THROW((void)img.at(0, 3), std::out_of_range);
}

TEST(Image, ClampedU8) {
  Image img(3, 1);
  img.at(0, 0) = -4.2;
  img.at(1, 0) = 99.6;
  img.at(2, 0) = 260.0;
  const Image c = clamped_u8(img);
  EXPECT_EQ(c.at(0, 0), 0.0);
  EXPECT_EQ(c.at(1, 0), 100.0);
  EXPECT_EQ(c.at(2, 0), 255.0);
}

// The one conversion from doubles into an int32 plane rounds v - offset half
// away from zero, exactly as level_shift_forward + round_coefficients do,
// and throws for what int32 cannot hold.
TEST(Image, ConvertsToInt32PlanesLikeLevelShiftAndRound) {
  Image img(7, 1);
  const double pixels[] = {0.5, 1.5, 127.5, 128.5, 255.0, -0.4, 300.25};
  std::copy(std::begin(pixels), std::end(pixels), img.data().begin());
  Image shifted = img;
  level_shift_forward(shifted);
  round_coefficients(shifted);
  const Plane<std::int32_t> plane = to_int32_plane(img, 128.0);
  ASSERT_EQ(plane.width(), 7u);
  ASSERT_EQ(plane.height(), 1u);
  EXPECT_EQ(plane.at(0, 0), -128);  // 0.5 - 128 = -127.5
  EXPECT_EQ(plane.at(1, 0), -127);  // -126.5
  EXPECT_EQ(plane.at(3, 0), 1);     // 0.5
  for (std::size_t x = 0; x < 7; ++x) {
    EXPECT_EQ(plane.at(x, 0), shifted.at(x, 0)) << x;
  }

  using Limits = std::numeric_limits<std::int32_t>;
  const double min = Limits::min(), max = Limits::max();
  EXPECT_EQ(round_to_int32(min), Limits::min());
  EXPECT_EQ(round_to_int32(min - 0.25), Limits::min());
  EXPECT_EQ(round_to_int32(max), Limits::max());
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           max + 1.0, max + 0.5, min - 1.0}) {
    EXPECT_THROW((void)round_to_int32(bad), std::overflow_error) << bad;
    EXPECT_THROW((void)to_int32_plane(Image(1, 1, bad)), std::overflow_error)
        << bad;
  }
  EXPECT_EQ(narrow_to_int32(std::int64_t{Limits::min()}), Limits::min());
  EXPECT_THROW((void)narrow_to_int32(std::int64_t{Limits::max()} + 1),
               std::overflow_error);
  EXPECT_THROW((void)narrow_to_int32(std::int64_t{Limits::min()} - 1),
               std::overflow_error);
}

TEST(Image, PgmRoundTrip) {
  const Image img = make_still_tone_image(32, 16, 5);
  const std::string path = ::testing::TempDir() + "/roundtrip.pgm";
  write_pgm(img, path);
  const Image back = read_pgm(path);
  ASSERT_EQ(back.width(), 32u);
  ASSERT_EQ(back.height(), 16u);
  for (std::size_t y = 0; y < 16; ++y) {
    for (std::size_t x = 0; x < 32; ++x) {
      EXPECT_NEAR(back.at(x, y), std::round(img.at(x, y)), 0.5);
    }
  }
  std::remove(path.c_str());
}

TEST(Image, ReadsAsciiPgmWithComments) {
  const std::string path = ::testing::TempDir() + "/ascii.pgm";
  {
    std::ofstream out(path);
    out << "P2\n# a comment line\n2 2\n255\n0 64\n128 255\n";
  }
  const Image img = read_pgm(path);
  EXPECT_EQ(img.at(0, 0), 0.0);
  EXPECT_EQ(img.at(1, 0), 64.0);
  EXPECT_EQ(img.at(0, 1), 128.0);
  EXPECT_EQ(img.at(1, 1), 255.0);
  std::remove(path.c_str());
}

TEST(Image, ReadRejectsMissingFileAndBadMagic) {
  EXPECT_THROW(read_pgm("/nonexistent/file.pgm"), std::runtime_error);
  const std::string path = ::testing::TempDir() + "/bad.pgm";
  {
    std::ofstream out(path);
    out << "P6\n2 2\n255\nxxxx";
  }
  EXPECT_THROW(read_pgm(path), std::runtime_error);
  std::remove(path.c_str());
}

/// Writes `content` verbatim and expects read_pgm to reject it.
void expect_rejected(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + "/" + name;
  {
    std::ofstream out(path, std::ios::binary);
    out << content;
  }
  EXPECT_THROW(read_pgm(path), std::runtime_error) << name;
  std::remove(path.c_str());
}

TEST(Image, ReadRejectsMalformedHeaders) {
  expect_rejected("trunc_magic.pgm", "P5");
  expect_rejected("trunc_dims.pgm", "P5\n4");
  expect_rejected("comment_eof.pgm", "P2\n# comment then nothing");
  expect_rejected("negative_dim.pgm", "P2\n-4 4\n255\n0 0 0 0\n");
  expect_rejected("zero_dim.pgm", "P2\n0 4\n255\n");
  expect_rejected("huge_dim.pgm", "P2\n70000 4\n255\n0\n");
  expect_rejected("wide_maxval.pgm", "P5\n2 2\n65535\n\0\0\0\0\0\0\0\0");
  expect_rejected("zero_maxval.pgm", "P2\n2 2\n0\n0 0 0 0\n");
  // The byte after a P5 maxval must be whitespace, not a pixel.
  expect_rejected("p5_no_space.pgm", "P5\n2 2\n255Xabcd");
}

TEST(Image, ReadRejectsTruncatedOrOutOfRangePixels) {
  expect_rejected("trunc_binary.pgm", "P5\n4 4\n255\nab");  // 2 of 16 bytes
  expect_rejected("trunc_ascii.pgm", "P2\n2 2\n255\n0 1 2\n");
  expect_rejected("over_maxval.pgm", "P2\n2 2\n100\n0 50 101 0\n");
  expect_rejected("negative_pixel.pgm", "P2\n2 2\n255\n0 -3 0 0\n");
  // Binary samples are held to maxval too, with the P2 message.
  const std::string p5_over("P5\n2 2\n100\n\x00\x32\xc8\x00", 15);
  expect_rejected("p5_over_maxval.pgm", p5_over);
  const std::vector<std::uint8_t> bytes(p5_over.begin(), p5_over.end());
  try {
    (void)parse_pgm(bytes, "request");
    ADD_FAILURE() << "P5 sample above maxval accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "read_pgm: sample 200 outside 0..100 in request");
  }
}

TEST(Image, ShortDocumentsFailBeforeTheirSamplesAreAllocated) {
  // Tiny documents declaring 65535 x 65535 samples: memory follows the bytes
  // received, so they fail as truncated instead of allocating 17 GB.
  for (const std::string& doc : {std::string("P5\n65535 65535\n255\n\x01\x02"),
                                std::string("P2\n65535 65535\n255\n1 2")}) {
    const std::vector<std::uint8_t> bytes(doc.begin(), doc.end());
    try {
      (void)parse_pgm(bytes, "short");
      ADD_FAILURE() << doc;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "read_pgm: truncated data in short");
    }
  }
}

TEST(Image, ParsesBytesIntoShiftedPlaneAndRendersThemBack) {
  const Image img = make_still_tone_image(7, 5, 3);
  const std::vector<std::uint8_t> p5 = render_pgm(img);
  for (const std::string& doc :
       {std::string(p5.begin(), p5.end()),
        std::string("P2\n# c\n7 5\n255\n") + [&] {
          std::string px;
          for (const double v : img.data()) {
            px += std::to_string(static_cast<int>(std::round(v))) + " ";
          }
          return px;
        }()}) {
    const std::vector<std::uint8_t> bytes(doc.begin(), doc.end());
    const Plane<std::int32_t> plane = parse_pgm(bytes, "doc", 128);
    ASSERT_EQ(plane.width(), 7u);
    ASSERT_EQ(plane.height(), 5u);
    for (std::size_t i = 0; i < plane.data().size(); ++i) {
      EXPECT_EQ(plane.data()[i], std::lround(img.data()[i]) - 128);
    }
    // The render clamps: the shifted plane comes back as the same P5 bytes,
    // and out-of-range samples saturate.
    EXPECT_EQ(render_pgm(plane, 128), p5);
    Plane<std::int32_t> wild = plane;
    wild.data()[0] = -1000;
    wild.data()[1] = std::numeric_limits<std::int32_t>::max();
    const std::vector<std::uint8_t> r = render_pgm(wild, 128);
    const std::size_t header = r.size() - wild.data().size();
    EXPECT_EQ(r[header], 0);
    EXPECT_EQ(r[header + 1], 255);
  }
}

TEST(Image, ReadAcceptsOddDimensionsAndCommentsEverywhere) {
  const std::string path = ::testing::TempDir() + "/odd_comments.pgm";
  {
    std::ofstream out(path);
    out << "P2\n# c1\n3 # c2\n1\n# c3\n255\n7 8 9\n";
  }
  const Image img = read_pgm(path);
  ASSERT_EQ(img.width(), 3u);
  ASSERT_EQ(img.height(), 1u);
  EXPECT_EQ(img.at(0, 0), 7.0);
  EXPECT_EQ(img.at(2, 0), 9.0);
  std::remove(path.c_str());
}

/// A tile round trip of a PGM document (default engine, 4-pixel tiles, two
/// octaves): its answer's bytes, or its error's message.
std::string round_trip_answer(const std::vector<std::uint8_t>& doc,
                              bool staged) {
  hw::TileOptions opt;
  opt.tile_w = opt.tile_h = 4;
  opt.octaves = 2;
  opt.threads = 1;
  try {
    std::vector<std::uint8_t> out;
    if (staged) {
      Plane<std::int32_t> plane = parse_pgm(doc, "mutant", kLevelShift);
      (void)hw::tile_forward(plane, opt);
      (void)hw::tile_inverse(plane, opt);
      out = render_pgm(plane, kLevelShift);
    } else {
      std::vector<std::uint8_t> decoded;
      out = hw::tile_round_trip(pgm_pixels(doc, "mutant", &decoded), opt).pgm;
    }
    return std::string(out.begin(), out.end());
  } catch (const std::exception& e) {
    return std::string("error: ") + e.what();
  }
}

TEST(Image, PixelViewsLieInP5BytesAndP2PixelsAreDecoded) {
  const std::string p5("P5\n3 2\n255\n\x01\x02\x03\x04\x05\xff", 17);
  const std::vector<std::uint8_t> bytes(p5.begin(), p5.end());
  std::vector<std::uint8_t> decoded;
  const PlaneView<const std::uint8_t> view = pgm_pixels(bytes, "p5", &decoded);
  EXPECT_EQ(view.data, bytes.data() + 11);
  EXPECT_EQ(view.width, 3u);
  EXPECT_EQ(view.height, 2u);
  EXPECT_EQ(view.pitch, 3u);
  EXPECT_TRUE(decoded.empty());
  const std::string p2 = "P2\n3 2\n255\n1 2 3\n4 5 255\n";
  const PlaneView<const std::uint8_t> text = pgm_pixels(
      std::vector<std::uint8_t>(p2.begin(), p2.end()), "p2", &decoded);
  EXPECT_EQ(text.data, decoded.data());
  EXPECT_EQ(decoded, std::vector<std::uint8_t>(bytes.begin() + 11, bytes.end()));
  EXPECT_THROW((void)u8_view(bytes, 6, 3), std::invalid_argument);
  EXPECT_EQ(u8_view(bytes, 6, 2).data, bytes.data());
}

TEST(Image, MutatedPgmParsesOrRejectsCleanly) {
  // Seeds: P5 and P2 documents with a comment line, 1x1 to 64x5.  A mutant
  // either parses, and its render parses back to the same plane, or is
  // rejected with a read_pgm: error.  Either way the one-pass tile round
  // trip gives the staged round trip's bytes, or the same error.
  std::vector<std::vector<std::uint8_t>> seeds;
  common::Rng rng(5);
  for (const auto& [w, h] : {std::pair<std::size_t, std::size_t>{1, 1},
                             {3, 2}, {7, 3}, {64, 5}}) {
    const std::string dims = std::to_string(w) + " " + std::to_string(h);
    std::string p5 = "P5\n# seed\n" + dims + "\n255\n";
    std::string p2 = "P2\n# seed\n" + dims + "\n255\n";
    for (std::size_t i = 0; i < w * h; ++i) {
      const auto v = static_cast<int>(rng.uniform(0, 255));
      p5 += static_cast<char>(v);
      p2 += std::to_string(v) + (i % w + 1 == w ? "\n" : " ");
    }
    seeds.emplace_back(p5.begin(), p5.end());
    seeds.emplace_back(p2.begin(), p2.end());
  }
  const std::size_t unclean = test::count_unclean_mutations(
      seeds, 20261018, 50000, /*header_bytes=*/16,
      [](const std::vector<std::uint8_t>& m) {
        if (round_trip_answer(m, true) != round_trip_answer(m, false)) {
          return false;
        }
        try {
          const Plane<std::int32_t> plane = parse_pgm(m, "mutant");
          const Plane<std::int32_t> back =
              parse_pgm(render_pgm(plane), "render");
          return back.width() == plane.width() &&
                 back.height() == plane.height() &&
                 back.data() == plane.data();
        } catch (const std::runtime_error& e) {
          return std::string(e.what()).starts_with("read_pgm: ");
        } catch (...) {
          return false;
        }
      });
  EXPECT_EQ(unclean, 0u);
}

TEST(ImageGen, StillToneIsDeterministicAndInRange) {
  const Image a = make_still_tone_image(64, 64, 7);
  const Image b = make_still_tone_image(64, 64, 7);
  EXPECT_EQ(a.data(), b.data());
  for (const double v : a.data()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 255.0);
  }
}

TEST(ImageGen, StillToneIsPixelCorrelated) {
  // Adjacent-pixel correlation is what the DWT exploits; the synthetic
  // scene must look like a photograph, not noise.
  const Image img = make_still_tone_image(128, 128, 2005);
  double diff = 0.0;
  std::size_t n = 0;
  for (std::size_t y = 0; y < 128; ++y) {
    for (std::size_t x = 1; x < 128; ++x) {
      diff += std::abs(img.at(x, y) - img.at(x - 1, y));
      ++n;
    }
  }
  EXPECT_LT(diff / static_cast<double>(n), 12.0);
}

TEST(ImageGen, NoiseIsNotCorrelated) {
  const Image img = make_noise_image(128, 128, 1);
  double diff = 0.0;
  std::size_t n = 0;
  for (std::size_t y = 0; y < 128; ++y) {
    for (std::size_t x = 1; x < 128; ++x) {
      diff += std::abs(img.at(x, y) - img.at(x - 1, y));
      ++n;
    }
  }
  EXPECT_GT(diff / static_cast<double>(n), 60.0);
}

TEST(ImageGen, RampIsMonotone) {
  const Image img = make_ramp_image(32, 4);
  for (std::size_t x = 1; x < 32; ++x) {
    EXPECT_GT(img.at(x, 0), img.at(x - 1, 0));
  }
}

}  // namespace
}  // namespace dwt::dsp
