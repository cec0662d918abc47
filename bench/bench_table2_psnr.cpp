// Regenerates paper Table 2: PSNR of the forward+inverse transform round
// trip (with integer coefficient storage) for the four computation methods.
//
// Substitution note (DESIGN.md): the paper measured a tile of "Lena"; we use
// the deterministic synthetic still-tone scene.  Absolute PSNR depends on
// the picture; the *shape* -- all methods within ~0.5 dB, integer rounding
// costing well under 1 dB -- is the reproduced claim.
#include <algorithm>
#include <cstdio>

#include "bench_json.hpp"
#include "dsp/dwt2d.hpp"
#include "dsp/image_gen.hpp"
#include "dsp/metrics.hpp"

namespace {

double table2_psnr(dwt::dsp::Method method, const dwt::dsp::Image& original,
                   int octaves) {
  dwt::dsp::Image plane = original;
  dwt::dsp::level_shift_forward(plane);
  dwt::dsp::dwt2d_forward(method, plane, octaves);
  dwt::dsp::round_coefficients(plane);
  dwt::dsp::dwt2d_inverse(method, plane, octaves);
  dwt::dsp::level_shift_inverse(plane);
  return dwt::dsp::psnr(original, dwt::dsp::clamped_u8(plane));
}

}  // namespace

int main(int argc, char** argv) {
  dwt::bench::JsonReporter json("bench_table2_psnr", argc, argv);
  const dwt::dsp::Image tile = dwt::dsp::make_still_tone_image(128, 128, 2005);
  const int octaves = 3;
  struct Row {
    dwt::dsp::Method method;
    const char* label;
    double paper_db;
  };
  const Row rows[] = {
      {dwt::dsp::Method::kFirHwFloat,
       "FIR filter by floating point 9/7 Daubechies coefficients", 37.497},
      {dwt::dsp::Method::kFirFixed,
       "FIR filter by integer rounded 9/7 Daubechies coefficients", 37.483},
      {dwt::dsp::Method::kLiftingHwFloat,
       "Lifting scheme by floating point factorized coefficients", 37.094},
      {dwt::dsp::Method::kLiftingFixed,
       "Lifting scheme by integer rounded factorized coefficients", 36.974},
  };
  std::printf("Table 2. Measurement of rounding error (%d-octave 2D DWT on a "
              "128x128 synthetic still-tone tile).\n\n", octaves);
  std::printf("%-60s %12s %12s\n", "Method", "PSNR (dB)", "paper (dB)");
  double fir_float = 0, fir_fixed = 0, lift_float = 0, lift_fixed = 0;
  for (const Row& row : rows) {
    const double p = table2_psnr(row.method, tile, octaves);
    std::printf("%-60s %12.3f %12.3f\n", row.label, p, row.paper_db);
    json.add(row.label, "psnr", p, "dB");
    json.add(row.label, "paper_psnr", row.paper_db, "dB");
    if (row.method == dwt::dsp::Method::kFirHwFloat) fir_float = p;
    if (row.method == dwt::dsp::Method::kFirFixed) fir_fixed = p;
    if (row.method == dwt::dsp::Method::kLiftingHwFloat) lift_float = p;
    if (row.method == dwt::dsp::Method::kLiftingFixed) lift_fixed = p;
  }
  std::printf(
      "\nShape check: rounding penalty FIR %.3f dB (paper 0.014), lifting "
      "%.3f dB (paper 0.120); all methods within %.3f dB of each other "
      "(paper: 0.523).\n",
      fir_float - fir_fixed, lift_float - lift_fixed,
      std::max({fir_float, fir_fixed, lift_float, lift_fixed}) -
          std::min({fir_float, fir_fixed, lift_float, lift_fixed}));
  json.add("shape check", "fir_rounding_penalty", fir_float - fir_fixed,
           "dB");
  json.add("shape check", "lifting_rounding_penalty",
           lift_float - lift_fixed, "dB");
  return json.exit_code();
}
