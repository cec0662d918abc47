// Extension: memory requirements of the figure-4 full-frame system vs the
// line-based architecture of reference [6].  The transforms are bit
// identical; the difference is where coefficients live while the octave is
// in flight.
#include <cstdio>
#include <string>

#include "bench_json.hpp"
#include "dsp/dwt2d.hpp"
#include "dsp/image_gen.hpp"
#include "hw/line_based_dwt2d.hpp"

int main(int argc, char** argv) {
  dwt::bench::JsonReporter json("bench_line_based_memory", argc, argv);
  std::printf("Extension: full-frame (figure 4) vs line-based (ref [6]) "
              "memory.\n\n");
  std::printf("%-12s %16s %18s %8s %10s\n", "tile", "frame (words)",
              "line-based (words)", "ratio", "bit-equal");
  for (const std::size_t n : {64u, 128u, 256u, 512u}) {
    dwt::dsp::Plane<std::int32_t> img = dwt::dsp::to_int32_plane(
        dwt::dsp::make_still_tone_image(n, n, 7), /*offset=*/128.0);
    dwt::dsp::Plane<std::int32_t> batch = img;
    const dwt::hw::LineBasedStats stats =
        dwt::hw::line_based_forward_octave(img);
    (void)dwt::dsp::dwt2d_forward(dwt::dsp::Method::kLiftingFixed,
                                  batch.view(), 1);
    const double ratio = static_cast<double>(stats.frame_memory_words) /
                         static_cast<double>(stats.line_buffer_words);
    std::printf("%4zux%-7zu %16zu %18zu %7.1fx %10s\n", n, n,
                stats.frame_memory_words, stats.line_buffer_words, ratio,
                img.data() == batch.data() ? "yes" : "NO");
    const std::string tile = std::to_string(n) + "x" + std::to_string(n);
    json.add(tile, "frame_memory",
             static_cast<double>(stats.frame_memory_words), "words");
    json.add(tile, "line_buffer",
             static_cast<double>(stats.line_buffer_words), "words");
    json.add(tile, "memory_ratio", ratio, "ratio");
    json.add(tile, "bit_equal", img.data() == batch.data() ? 1.0 : 0.0,
             "bool");
  }
  std::printf(
      "\nThe line-based organization replaces the W*H frame memory with ~7\n"
      "lines of on-chip buffer (two transformed rows + five state words per\n"
      "column engine), growing the advantage linearly with image height.\n");
  return json.exit_code();
}
