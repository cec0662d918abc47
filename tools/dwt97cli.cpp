// dwt97cli -- command-line front end to the library.
//
//   dwt97cli compress      <in.pgm> <out.dwt> [--lossless] [--step S] [--octaves N]
//   dwt97cli decompress    <in.dwt> <out.pgm>
//   dwt97cli tile          <in.pgm> <out.pgm> [--octaves N] [--tile N]
//                          [--threads N] [--backend NAME] [--design D]
//                          [--adder ARCH] [--opt-level 0|1|2]
//   dwt97cli gen           <out.pgm> <width> <height> [seed]
//   dwt97cli synth         [design 1..5] [--adder ARCH]
//   dwt97cli verilog       <design 1..5> <out.v> [--adder ARCH]
//   dwt97cli psnr          <a.pgm> <b.pgm>
//   dwt97cli list-backends      (also accepted: --list-backends)
//   dwt97cli list-designs       (also accepted: --list-designs)
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "codec/codec.hpp"
#include "core/registry.hpp"
#include "dsp/dwt2d.hpp"
#include "dsp/image_gen.hpp"
#include "dsp/metrics.hpp"
#include "explore/explorer.hpp"
#include "fpga/report.hpp"
#include "hw/designs.hpp"
#include "hw/tile_scheduler.hpp"
#include "rtl/adder_arch.hpp"
#include "rtl/verilog_writer.hpp"

namespace {

namespace cli = dwt::cli;

std::string adder_arch_names() {
  std::string names;
  for (const dwt::rtl::AdderArch arch : dwt::rtl::all_adder_archs()) {
    if (!names.empty()) names += ", ";
    names += dwt::rtl::adder_name(arch);
  }
  return names;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  dwt97cli compress   <in.pgm> <out.dwt> [--lossless] "
               "[--step S] [--octaves N]\n"
               "  dwt97cli decompress <in.dwt> <out.pgm>\n"
               "  dwt97cli tile       <in.pgm> <out.pgm> [--octaves N] "
               "[--tile N] [--threads N]\n"
               "                      [--backend NAME] [--design D] "
               "[--adder ARCH]\n"
               "                      [--opt-level 0|1|2]\n"
               "  dwt97cli gen        <out.pgm> <width> <height> [seed]\n"
               "  dwt97cli synth      [design 1..5] [--adder ARCH]\n"
               "  dwt97cli verilog    <design 1..5> <out.v> [--adder ARCH]\n"
               "  dwt97cli psnr       <a.pgm> <b.pgm>\n"
               "  dwt97cli list-backends\n"
               "  dwt97cli list-designs\n"
               "backends: %s\n"
               "adders:   %s\n",
               dwt::core::backend_names().c_str(), adder_arch_names().c_str());
  return 2;
}

/// `--adder ARCH`: the adder-architecture override of the gate-level
/// datapath.  Every architecture streams bit-identical coefficients (the
/// adders are functionally equivalent), so this is an area/f_max knob and a
/// CI cross-check hook, not a mode switch.
cli::Flag adder_flag(std::optional<dwt::rtl::AdderArch>* dst) {
  return cli::value_flag(
      "--adder",
      [dst](const char* v) {
        *dst = dwt::rtl::parse_adder(v);
        return dst->has_value();
      },
      "have: " + adder_arch_names());
}

int cmd_compress(int argc, char** argv) {
  if (argc < 4) return usage();
  dwt::codec::EncodeOptions opt;
  if (!cli::parse_flags(
          argc, argv, 4,
          {cli::switch_flag(
               "--lossless",
               [&] { opt.mode = dwt::codec::CodecMode::kLossless53; }),
           cli::value_flag("--step",
                           [&](const char* v) {
                             return cli::parse_double(v, &opt.base_step) &&
                                    opt.base_step > 0.0;
                           }),
           cli::uint_flag("--octaves", 1, 16, &opt.octaves)})) {
    return usage();
  }
  const dwt::dsp::Image img = dwt::dsp::read_pgm(argv[2]);
  const auto enc = dwt::codec::encode_image(img, opt);
  cli::write_file(argv[3], enc.bytes);
  std::printf("%s: %zux%zu -> %zu bytes (%.2f bpp, %s)\n", argv[3],
              img.width(), img.height(), enc.bytes.size(),
              enc.bits_per_pixel(img.width(), img.height()),
              opt.mode == dwt::codec::CodecMode::kLossless53 ? "lossless 5/3"
                                                             : "lossy 9/7");
  return 0;
}

int cmd_decompress(int argc, char** argv) {
  if (argc != 4) return usage();
  const dwt::dsp::Image img = dwt::codec::decode_image(
      cli::read_file<std::vector<std::uint8_t>>(argv[2]));
  dwt::dsp::write_pgm(img, argv[3]);
  std::printf("%s: %zux%zu\n", argv[3], img.width(), img.height());
  return 0;
}

// Forward+inverse through the tile-parallel pipeline and write the
// reconstruction: a round-trip exerciser for the tile scheduler on real
// image files (any dimensions), from the file's bytes to the output's in
// one pass over the tiles.
int cmd_tile(int argc, char** argv) {
  if (argc < 4) return usage();
  dwt::hw::TileOptions opt;
  opt.method = dwt::dsp::Method::kLiftingFixed;
  opt.octaves = 2;
  if (!cli::parse_flags(
          argc, argv, 4,
          {cli::uint_flag("--octaves", 1, 16, &opt.octaves),
           cli::uint_flag("--tile", 1, 1 << 20, &opt.tile_w),
           cli::uint_flag("--threads", 0, 1024, &opt.threads),
           cli::value_flag(
               "--backend",
               [&](const char* v) {
                 opt.backend = dwt::core::find_backend(v);
                 return opt.backend != nullptr;
               },
               "have: " + dwt::core::backend_names()),
           cli::value_flag("--design",
                           [&](const char* v) {
                             const std::optional<dwt::hw::DesignId> design =
                                 dwt::hw::parse_design(v);
                             if (design) opt.design = *design;
                             return design.has_value();
                           }),
           adder_flag(&opt.adder),
           // Tape optimization level for the rtl-compiled backend; other
           // engines ignore it.  Every level streams bit-identical output,
           // so this is a perf knob (and a CI cross-check hook).
           cli::uint_flag("--opt-level", 0, 2, &opt.opt_level)})) {
    return usage();
  }
  opt.tile_h = opt.tile_w;
  const auto bytes = cli::read_file<std::vector<std::uint8_t>>(argv[2]);
  std::vector<std::uint8_t> decoded;
  const dwt::dsp::PlaneView<const std::uint8_t> pixels =
      dwt::dsp::pgm_pixels(bytes, argv[2], &decoded);
  const dwt::hw::RoundTrip rt = dwt::hw::tile_round_trip(pixels, opt);
  cli::write_file(argv[3], rt.pgm);
  const dwt::dsp::PlaneView<const std::uint8_t> back = dwt::dsp::pgm_body(
      std::span<const std::uint8_t>(rt.pgm), pixels.width, pixels.height);
  std::printf("%s: %zux%zu, %zu tiles on %u threads, round-trip %.2f dB\n",
              argv[3], pixels.width, pixels.height, rt.stats.tiles,
              rt.stats.threads_used, dwt::dsp::psnr(pixels, back));
  return 0;
}

// Writes a deterministic still-tone test image; lets CI exercise the PGM
// pipeline on arbitrary (e.g. odd) dimensions without binary fixtures.
int cmd_gen(int argc, char** argv) {
  if (argc < 5 || argc > 6) return usage();
  unsigned long long w = 0, h = 0, seed = 1;
  if (!cli::parse_uint(argv[3], 1, 1 << 16, &w) ||
      !cli::parse_uint(argv[4], 1, 1 << 16, &h) ||
      (argc == 6 && !cli::parse_uint(argv[5], 0, 1ULL << 40, &seed))) {
    std::fprintf(stderr, "bad gen arguments\n");
    return usage();
  }
  dwt::dsp::Image img = dwt::dsp::make_still_tone_image(
      static_cast<std::size_t>(w), static_cast<std::size_t>(h),
      static_cast<std::uint64_t>(seed));
  dwt::dsp::write_pgm(img, argv[2]);
  std::printf("%s: %llux%llu seed %llu\n", argv[2], w, h, seed);
  return 0;
}

int cmd_synth(int argc, char** argv) {
  std::optional<dwt::hw::DesignId> design;
  std::optional<dwt::rtl::AdderArch> adder;
  int i = 2;
  if (i < argc && std::strncmp(argv[i], "--", 2) != 0) {
    design = dwt::hw::parse_design(argv[i]);
    if (!design) return usage();
    ++i;
  }
  if (!cli::parse_flags(argc, argv, i, {adder_flag(&adder)})) return usage();
  if (adder.has_value() && !design.has_value()) {
    std::fprintf(stderr, "--adder needs a design argument\n");
    return usage();
  }
  dwt::explore::Explorer explorer;
  if (design) {
    dwt::hw::DesignSpec spec = dwt::hw::design_spec(*design);
    if (adder.has_value()) {
      spec.config.adder_style = *adder;
      spec.name = dwt::hw::design_point_name(*design, adder);
    }
    const auto eval = explorer.evaluate(spec);
    std::printf("%s\n", eval.report.to_string().c_str());
    return 0;
  }
  std::printf("%s\n", dwt::fpga::format_table3_header().c_str());
  for (const auto& eval : explorer.evaluate_all()) {
    std::printf("%s\n", dwt::fpga::format_table3_row(eval.report).c_str());
  }
  return 0;
}

int cmd_verilog(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::optional<dwt::hw::DesignId> design =
      dwt::hw::parse_design(argv[2]);
  if (!design) return usage();
  std::optional<dwt::rtl::AdderArch> adder;
  if (!cli::parse_flags(argc, argv, 4, {adder_flag(&adder)})) return usage();
  const auto dp =
      adder.has_value()
          ? dwt::hw::build_lifting_datapath(
                dwt::hw::design_config(*design, /*max_octaves=*/1, adder))
          : dwt::hw::build_design(*design);
  std::ostringstream verilog;
  dwt::rtl::write_verilog(dp.netlist, "dwt_lifting_core", verilog);
  cli::write_file(argv[3], verilog.str());
  std::printf("%s: design %d (%zu cells, latency %d)\n", argv[3],
              dwt::hw::design_index(*design), dp.netlist.cell_count(),
              dp.info.latency);
  return 0;
}

int cmd_list_backends() {
  std::printf("%-16s %-5s %-6s %-4s %s\n", "backend", "gates", "exact",
              "inv", "description");
  for (const dwt::core::ExecutionBackend& b : dwt::core::all_backends()) {
    const dwt::core::BackendCaps caps = b.caps();
    std::printf("%-16s %-5s %-6s %-4s %s\n", std::string(b.name()).c_str(),
                caps.gate_level ? "yes" : "-", caps.bit_exact ? "yes" : "-",
                caps.inverse_2d ? "yes" : "-",
                std::string(b.description()).c_str());
  }
  return 0;
}

int cmd_list_designs() {
  std::printf("%-24s %-13s %-6s %-10s %-12s %s\n", "design", "adder", "depth",
              "area(LE)", "fmax(MHz)", "description");
  const auto table = dwt::hw::paper_table3();
  const auto designs = dwt::hw::all_designs();
  for (std::size_t i = 0; i < designs.size(); ++i) {
    std::printf("%-24s %-13s %-6d %-10d %-12.1f %s\n", designs[i].name.c_str(),
                dwt::rtl::adder_name(designs[i].config.adder_style),
                table[i].pipeline_stages, table[i].area_les,
                table[i].fmax_mhz, designs[i].description.c_str());
  }
  // The (design x adder) variant points extend the space beyond paper
  // Table 3, so the published area/f_max columns do not apply; the pipeline
  // depth matches the base design (the adder swap is purely combinational).
  for (const dwt::hw::DesignSpec& spec : dwt::hw::adder_variant_designs()) {
    const int idx = dwt::hw::design_index(spec.id);
    std::printf("%-24s %-13s %-6d %-10s %-12s %s\n", spec.name.c_str(),
                dwt::rtl::adder_name(spec.config.adder_style),
                table[static_cast<std::size_t>(idx - 1)].pipeline_stages, "-",
                "-", spec.description.c_str());
  }
  return 0;
}

int cmd_psnr(int argc, char** argv) {
  if (argc != 4) return usage();
  const dwt::dsp::Image a = dwt::dsp::read_pgm(argv[2]);
  const dwt::dsp::Image b = dwt::dsp::read_pgm(argv[3]);
  std::printf("%.3f dB\n", dwt::dsp::psnr(a, b));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "compress") == 0) return cmd_compress(argc, argv);
    if (std::strcmp(argv[1], "decompress") == 0) {
      return cmd_decompress(argc, argv);
    }
    if (std::strcmp(argv[1], "tile") == 0) return cmd_tile(argc, argv);
    if (std::strcmp(argv[1], "gen") == 0) return cmd_gen(argc, argv);
    if (std::strcmp(argv[1], "synth") == 0) return cmd_synth(argc, argv);
    if (std::strcmp(argv[1], "verilog") == 0) return cmd_verilog(argc, argv);
    if (std::strcmp(argv[1], "psnr") == 0) return cmd_psnr(argc, argv);
    if (std::strcmp(argv[1], "list-backends") == 0 ||
        std::strcmp(argv[1], "--list-backends") == 0) {
      return cmd_list_backends();
    }
    if (std::strcmp(argv[1], "list-designs") == 0 ||
        std::strcmp(argv[1], "--list-designs") == 0) {
      return cmd_list_designs();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
