#include "codec/codec.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dsp/image_gen.hpp"
#include "dsp/metrics.hpp"

namespace dwt::codec {
namespace {

dsp::Image integer_image(std::size_t n, std::uint64_t seed) {
  dsp::Image img = dsp::make_still_tone_image(n, n, seed);
  for (double& v : img.data()) v = std::round(v);
  return img;
}

TEST(Codec, LosslessModeIsBitExact) {
  const dsp::Image img = integer_image(64, 3);
  EncodeOptions opt;
  opt.mode = CodecMode::kLossless53;
  const EncodedImage enc = encode_image(img, opt);
  const dsp::Image dec = decode_image(enc.bytes);
  ASSERT_EQ(dec.width(), img.width());
  ASSERT_EQ(dec.height(), img.height());
  EXPECT_EQ(dec.data(), img.data());
}

TEST(Codec, LosslessCompressesStillToneImagery) {
  const dsp::Image img = integer_image(128, 5);
  EncodeOptions opt;
  opt.mode = CodecMode::kLossless53;
  const EncodedImage enc = encode_image(img, opt);
  // 8 bpp raw; correlated content should code well below that.
  EXPECT_LT(enc.bits_per_pixel(img.width(), img.height()), 7.0);
}

TEST(Codec, LossyQualityAndRateTradeOff) {
  const dsp::Image img = integer_image(128, 7);
  double prev_bpp = 1e9;
  double prev_psnr = 1e9;
  for (const double step : {1.0, 4.0, 16.0}) {
    EncodeOptions opt;
    opt.base_step = step;
    const EncodedImage enc = encode_image(img, opt);
    const dsp::Image dec = decode_image(enc.bytes);
    const double bpp = enc.bits_per_pixel(img.width(), img.height());
    const double quality = dsp::psnr(img, dec);
    EXPECT_LT(bpp, prev_bpp) << step;       // coarser step -> fewer bits
    EXPECT_LT(quality, prev_psnr) << step;  // ...and lower quality
    prev_bpp = bpp;
    prev_psnr = quality;
  }
}

TEST(Codec, LossyModeReachesUsefulQuality) {
  const dsp::Image img = integer_image(128, 9);
  EncodeOptions opt;
  opt.base_step = 4.0;
  const EncodedImage enc = encode_image(img, opt);
  const dsp::Image dec = decode_image(enc.bytes);
  EXPECT_GT(dsp::psnr(img, dec), 35.0);
  EXPECT_LT(enc.bits_per_pixel(img.width(), img.height()), 4.0);
}

TEST(Codec, NoiseCodesWorseThanStillTone) {
  EncodeOptions opt;
  opt.mode = CodecMode::kLossless53;
  const dsp::Image smooth = integer_image(64, 11);
  dsp::Image noise = dsp::make_noise_image(64, 64, 11);
  const double bpp_smooth =
      encode_image(smooth, opt).bits_per_pixel(64, 64);
  const double bpp_noise = encode_image(noise, opt).bits_per_pixel(64, 64);
  EXPECT_GT(bpp_noise, bpp_smooth);
}

TEST(Codec, HeaderRoundTripsOptions) {
  const dsp::Image img = integer_image(32, 13);
  for (const int octaves : {1, 2, 3}) {
    EncodeOptions opt;
    opt.octaves = octaves;
    opt.base_step = 2.0;
    const EncodedImage enc = encode_image(img, opt);
    EXPECT_NO_THROW((void)decode_image(enc.bytes)) << octaves;
  }
}

TEST(Codec, RejectsBadInputs) {
  EncodeOptions opt;
  opt.octaves = 0;
  EXPECT_THROW(encode_image(integer_image(32, 1), opt), std::invalid_argument);
  opt = {};
  opt.base_step = 0.0;
  EXPECT_THROW(encode_image(integer_image(32, 1), opt), std::invalid_argument);
  EXPECT_THROW(decode_image({0x00, 0x01, 0x02}), std::invalid_argument);
}

TEST(Codec, RejectsHeaderDeclaringMorePixelsThanBits) {
  // 11 bytes: magic, lossy mode, 65535x65535, 1 octave, step 4.0, then a
  // single payload byte -- a 34 GB plane the stream cannot possibly fill.
  const std::vector<std::uint8_t> bytes{0xD9, 0x7C, 0x00, 0xFF, 0xFF, 0xFF,
                                        0xFF, 0x01, 0x00, 0x40, 0x00};
  EXPECT_THROW((void)decode_image(bytes), std::invalid_argument);
}

TEST(Codec, RejectsUnknownModeByte) {
  std::vector<std::uint8_t> bytes = encode_image(integer_image(16, 3)).bytes;
  EXPECT_NO_THROW((void)decode_image(bytes));
  bytes[2] = 7;  // the mode byte follows the 16-bit magic
  EXPECT_THROW((void)decode_image(bytes), std::invalid_argument);
}

}  // namespace
}  // namespace dwt::codec
