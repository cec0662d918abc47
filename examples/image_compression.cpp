// Lossy image compression demo: the pipeline the paper's introduction
// motivates (transform -> quantize -> [entropy code] -> dequantize ->
// inverse transform).  Sweeps the quantizer step and prints the
// rate-distortion trade: fraction of zeroed coefficients (a proxy for the
// entropy coder's job) versus reconstruction PSNR.
//
//   ./image_compression [input.pgm]
#include <cmath>
#include <cstdio>

#include "codec/codec.hpp"
#include "dsp/dwt2d.hpp"
#include "dsp/image_gen.hpp"
#include "dsp/metrics.hpp"
#include "dsp/quantizer.hpp"

int main(int argc, char** argv) {
  using namespace dwt::dsp;
  Image original = argc > 1 ? read_pgm(argv[1])
                            : make_still_tone_image(256, 256);
  std::printf("Compressing a %zux%zu image with the 9/7 lifting DWT "
              "(3 octaves) + deadzone quantizer.\n\n",
              original.width(), original.height());

  const int octaves = 3;
  std::printf("%-12s %14s %12s\n", "quant step", "zeroed coeffs", "PSNR (dB)");
  for (const double step : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    Image plane = original;
    level_shift_forward(plane);
    dwt2d_forward(Method::kLiftingFloat, plane, octaves);
    quantize_plane(plane, octaves, step);
    const double zeros = zero_fraction(plane);
    dwt2d_inverse(Method::kLiftingFloat, plane, octaves);
    level_shift_inverse(plane);
    const double quality = psnr(original, clamped_u8(plane));
    std::printf("%-12.1f %13.1f%% %12.2f\n", step, 100.0 * zeros, quality);
    if (step == 8.0) {
      write_pgm(plane, "compressed_step8.pgm");
    }
  }
  std::printf(
      "\nThe quantizer zeroes most detail coefficients at moderate quality\n"
      "loss -- the energy-compaction property the hardware DWT cores exist\n"
      "to compute.  Wrote compressed_step8.pgm.\n");

  // Full codec (transform + quantize + Exp-Golomb entropy coding): actual
  // coded rates in bits per pixel.
  dwt::dsp::Image integer_img = original;
  for (double& v : integer_img.data()) v = std::round(v);
  std::printf("\nFull codec rates (entropy coded):\n");
  std::printf("%-26s %10s %12s\n", "mode", "bpp", "PSNR (dB)");
  {
    dwt::codec::EncodeOptions opt;
    opt.mode = dwt::codec::CodecMode::kLossless53;
    const auto enc = dwt::codec::encode_image(integer_img, opt);
    const auto dec = dwt::codec::decode_image(enc.bytes);
    std::printf("%-26s %10.2f %12s\n", "lossless 5/3",
                enc.bits_per_pixel(original.width(), original.height()),
                dec.data() == integer_img.data() ? "exact" : "BROKEN");
  }
  for (const double step : {1.0, 4.0, 16.0}) {
    dwt::codec::EncodeOptions opt;
    opt.base_step = step;
    const auto enc = dwt::codec::encode_image(integer_img, opt);
    const auto dec = dwt::codec::decode_image(enc.bytes);
    std::printf("lossy 9/7, step %-9.1f %10.2f %12.2f\n", step,
                enc.bits_per_pixel(original.width(), original.height()),
                psnr(integer_img, dec));
  }
  return 0;
}
