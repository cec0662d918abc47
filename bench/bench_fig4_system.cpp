// Figure 4: the 2D-DWT system (1D core + memory + memory control).  Runs the
// cycle-accurate system model over image tiles and reports cycle counts and
// wall-clock transform time at each design's maximum operating frequency.
#include <cstdio>

#include "bench_json.hpp"
#include "dsp/image_gen.hpp"
#include "explore/explorer.hpp"
#include "hw/dwt2d_system.hpp"

int main(int argc, char** argv) {
  dwt::bench::JsonReporter json("bench_fig4_system", argc, argv);
  std::printf("Figure 4. 2D-DWT system: cycle accounting per design.\n\n");
  dwt::explore::Explorer explorer;

  const std::size_t tile = 64;
  const int octaves = 1;
  std::printf("Transforming a %zux%zu tile, %d octave(s):\n\n", tile, tile,
              octaves);
  std::printf("%-10s %12s %12s %12s %14s\n", "Design", "line passes",
              "cycles", "fmax (MHz)", "time (ms)");
  for (const dwt::hw::DesignSpec& spec : dwt::hw::all_designs()) {
    dwt::dsp::Plane<std::int32_t> plane = dwt::dsp::to_int32_plane(
        dwt::dsp::make_still_tone_image(tile, tile, 7), /*offset=*/128.0);
    dwt::hw::Dwt2dSystem system(spec.id);
    const dwt::hw::Dwt2dRunStats stats =
        system.transform(plane.view(), octaves);
    const auto eval = explorer.evaluate(spec);
    std::printf("%-10s %12llu %12llu %12.1f %14.3f\n", spec.name.c_str(),
                static_cast<unsigned long long>(stats.line_passes),
                static_cast<unsigned long long>(stats.total_cycles),
                eval.report.fmax_mhz,
                stats.milliseconds_at(eval.report.fmax_mhz));
    json.add(spec.name, "line_passes",
             static_cast<double>(stats.line_passes), "count");
    json.add(spec.name, "total_cycles",
             static_cast<double>(stats.total_cycles), "cycles");
    json.add(spec.name, "fmax", eval.report.fmax_mhz, "MHz");
    json.add(spec.name, "tile_time",
             stats.milliseconds_at(eval.report.fmax_mhz), "ms");
  }
  std::printf(
      "\nThe pipelined designs pay a longer per-line flush but finish the\n"
      "tile fastest thanks to their higher clock -- the throughput argument\n"
      "of the paper's conclusions.\n");
  return json.exit_code();
}
