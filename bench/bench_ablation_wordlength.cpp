// Ablation: coefficient word length.  The paper fixes 8 fractional bits;
// this sweep shows the PSNR cost of narrower constants and the area cost of
// wider ones (interval-sized datapaths, since the paper's section-3.1
// register ranges only apply to the 8-bit case).
#include <cstdio>
#include <string>

#include "bench_json.hpp"
#include "dsp/dwt2d.hpp"
#include "dsp/image_gen.hpp"
#include "dsp/metrics.hpp"
#include "explore/explorer.hpp"
#include "hw/designs.hpp"

namespace {

double psnr_at(int frac_bits) {
  dwt::dsp::Image img = dwt::dsp::make_still_tone_image(128, 128, 2005);
  const dwt::dsp::Image original = img;
  dwt::dsp::level_shift_forward(img);
  dwt::dsp::dwt2d_forward(dwt::dsp::Method::kLiftingFixed, img, 3, frac_bits);
  dwt::dsp::dwt2d_inverse(dwt::dsp::Method::kLiftingFixed, img, 3, frac_bits);
  dwt::dsp::level_shift_inverse(img);
  return dwt::dsp::psnr(original, dwt::dsp::clamped_u8(img));
}

}  // namespace

int main(int argc, char** argv) {
  dwt::bench::JsonReporter json("bench_ablation_wordlength", argc, argv);
  dwt::explore::Explorer explorer;
  std::printf("Ablation: coefficient fractional bits (design 2 datapath, "
              "interval sizing).\n\n");
  std::printf("%-10s %12s %8s %12s %14s\n", "frac bits", "PSNR (dB)", "LEs",
              "fmax (MHz)", "P@15MHz (mW)");
  for (const int f : {4, 6, 8, 10, 12}) {
    dwt::hw::DesignSpec spec = dwt::hw::design_spec(dwt::hw::DesignId::kDesign2);
    spec.config.frac_bits = f;
    spec.config.paper_widths = false;
    const auto eval = explorer.evaluate(spec);
    const double psnr = psnr_at(f);
    std::printf("%-10d %12.2f %8zu %12.1f %14.1f\n", f, psnr,
                eval.report.logic_elements, eval.report.fmax_mhz,
                eval.report.power_mw);
    const std::string scenario = std::to_string(f) + " frac bits";
    json.add(scenario, "psnr", psnr, "dB");
    json.add(scenario, "area",
             static_cast<double>(eval.report.logic_elements), "LEs");
    json.add(scenario, "fmax", eval.report.fmax_mhz, "MHz");
    json.add(scenario, "power_at_15mhz", eval.report.power_mw, "mW");
  }
  std::printf(
      "\nThe paper's 8 fractional bits sit at the knee: fewer bits visibly\n"
      "hurt reconstruction quality, while more bits grow every adder and\n"
      "register for marginal PSNR (the round-trip error is dominated by the\n"
      "per-stage integer truncation, not the constants).\n");
  return json.exit_code();
}
