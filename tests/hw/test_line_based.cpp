#include "hw/line_based_dwt2d.hpp"

#include <gtest/gtest.h>

#include "dsp/dwt2d.hpp"
#include "dsp/image_gen.hpp"

namespace dwt::hw {
namespace {

dsp::Plane<std::int32_t> shifted_tile(std::size_t w, std::size_t h,
                                      std::uint64_t seed) {
  return dsp::to_int32_plane(dsp::make_still_tone_image(w, h, seed),
                             /*offset=*/128.0);
}

class LineBasedMatchesBatch
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(LineBasedMatchesBatch, BitExactOctave) {
  const auto [w, h] = GetParam();
  dsp::Plane<std::int32_t> line = shifted_tile(w, h, 7);
  dsp::Plane<std::int32_t> batch = line;
  (void)line_based_forward_octave(line);
  (void)dsp::dwt2d_forward(dsp::Method::kLiftingFixed, batch.view(), 1);
  EXPECT_EQ(line.data(), batch.data()) << w << "x" << h;
}

INSTANTIATE_TEST_SUITE_P(Sizes, LineBasedMatchesBatch,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{16, 16},
                                           std::pair<std::size_t, std::size_t>{32, 16},
                                           std::pair<std::size_t, std::size_t>{16, 32},
                                           std::pair<std::size_t, std::size_t>{64, 64},
                                           std::pair<std::size_t, std::size_t>{2, 8},
                                           std::pair<std::size_t, std::size_t>{8, 2},
                                           std::pair<std::size_t, std::size_t>{15, 16},
                                           std::pair<std::size_t, std::size_t>{16, 15},
                                           std::pair<std::size_t, std::size_t>{13, 9},
                                           std::pair<std::size_t, std::size_t>{7, 1},
                                           std::pair<std::size_t, std::size_t>{1, 7},
                                           std::pair<std::size_t, std::size_t>{1, 1}));

TEST(LineBased, MemoryFootprintIsLinesNotFrames) {
  dsp::Plane<std::int32_t> img = shifted_tile(64, 64, 3);
  const LineBasedStats stats = line_based_forward_octave(img);
  EXPECT_EQ(stats.frame_memory_words, 64u * 64u);
  EXPECT_EQ(stats.line_buffer_words, 7u * 64u);
  EXPECT_LT(stats.line_buffer_words * 8, stats.frame_memory_words);
}

TEST(LineBased, RowPassCountIncludesGuards) {
  dsp::Plane<std::int32_t> img = shifted_tile(16, 32, 5);
  const LineBasedStats stats = line_based_forward_octave(img);
  // (row pairs + 2 * 4 guards) * 2 rows per pair.
  EXPECT_EQ(stats.rows_processed, (32u / 2u + 8u) * 2u);
}

TEST(LineBased, RejectsEmptyPlane) {
  dsp::Plane<std::int32_t> img(0, 16);
  EXPECT_THROW(line_based_forward_octave(img), std::invalid_argument);
}

}  // namespace
}  // namespace dwt::hw
