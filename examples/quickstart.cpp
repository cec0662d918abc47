// Quickstart: the software wavelet API in one page.
//
//   ./quickstart [input.pgm]
//
// Loads an 8-bit PGM (or generates the synthetic still-tone test scene),
// runs a 3-octave 9/7 DWT with the lifting scheme, reports how much energy
// the transform packs into the LL band, reconstructs, and writes the
// transform plane and reconstruction next to the input.
#include <cstdio>

#include "dsp/dwt2d.hpp"
#include "dsp/image_gen.hpp"
#include "dsp/metrics.hpp"
#include "dsp/quantizer.hpp"

int main(int argc, char** argv) {
  using namespace dwt::dsp;

  // 1. Get an image.
  Image original;
  if (argc > 1) {
    original = read_pgm(argv[1]);
    std::printf("Loaded %s (%zux%zu)\n", argv[1], original.width(),
                original.height());
  } else {
    original = make_still_tone_image(256, 256);
    std::printf("Generated a 256x256 synthetic still-tone scene "
                "(pass a .pgm path to use your own image).\n");
  }

  // 2. Forward transform: DC level shift, then 3 octaves of the 9/7 lifting
  //    DWT (the JPEG2000 irreversible transform).
  const int octaves = 3;
  Image plane = original;
  level_shift_forward(plane);
  dwt2d_forward(Method::kLiftingFloat, plane, octaves);

  // 3. Inspect energy compaction: the whole point of the transform.
  const SubbandRect ll = subband_rect(plane.width(), plane.height(), octaves,
                                      Band::kLL);
  double ll_energy = 0.0, total_energy = 0.0;
  for (std::size_t y = 0; y < plane.height(); ++y) {
    for (std::size_t x = 0; x < plane.width(); ++x) {
      const double e = plane.at(x, y) * plane.at(x, y);
      total_energy += e;
      if (x < ll.w && y < ll.h) ll_energy += e;
    }
  }
  std::printf("LL band holds %.1f%% of the energy in %.2f%% of the samples.\n",
              100.0 * ll_energy / total_energy,
              100.0 * static_cast<double>(ll.w * ll.h) /
                  static_cast<double>(plane.width() * plane.height()));

  // 4. Round coefficients to integers (what fixed-width storage implies),
  //    reconstruct, and measure the quality.
  Image coeffs = plane;  // keep a copy for the visualization
  round_coefficients(plane);
  dwt2d_inverse(Method::kLiftingFloat, plane, octaves);
  level_shift_inverse(plane);
  const double quality = psnr(original, clamped_u8(plane));
  std::printf("Round trip with integer coefficients: %.2f dB PSNR.\n", quality);

  // 5. Save artifacts.
  for (double& v : coeffs.data()) v = v / 4.0 + 128.0;  // displayable
  write_pgm(coeffs, "quickstart_transform.pgm");
  write_pgm(plane, "quickstart_reconstruction.pgm");
  std::printf("Wrote quickstart_transform.pgm and "
              "quickstart_reconstruction.pgm\n");
  return 0;
}
