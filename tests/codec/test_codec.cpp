#include "codec/codec.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "codec/bitstream.hpp"
#include "codec/golomb.hpp"
#include "dsp/dwt2d.hpp"
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

// A 2x2 one-octave lossless stream holding `bands` (LL, HL, LH, HH), each
// coded at Exp-Golomb order 0.
std::vector<std::uint8_t> lossless_2x2(
    const std::array<std::int64_t, 4>& bands) {
  BitWriter w;
  w.write_bits(0xD97C, 16);
  w.write_bits(static_cast<std::uint64_t>(CodecMode::kLossless53), 8);
  w.write_bits(2, 16);
  w.write_bits(2, 16);
  w.write_bits(1, 8);
  w.write_bits(4 * 16, 16);  // quantizer step 4.0
  for (const std::int64_t v : bands) {
    w.write_bits(0, 5);
    write_signed_exp_golomb(w, v, 0);
  }
  return w.finish();
}

TEST(Codec, DecodeRejectsCoefficientsOutsideInt32) {
  using Limits = std::numeric_limits<std::int32_t>;
  // LL = 2^62 is the 29-byte stream CI feeds `dwt97cli decompress`.
  const std::vector<std::uint8_t> hostile{
      0xd9, 0x7c, 0x01, 0x00, 0x02, 0x00, 0x02, 0x01, 0x00, 0x40,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x41, 0x04};
  EXPECT_EQ(lossless_2x2({std::int64_t{1} << 62, 0, 0, 0}), hostile);
  for (const std::int64_t ll : {std::int64_t{1} << 62, std::int64_t{1} << 31,
                                -(std::int64_t{1} << 40)}) {
    try {
      (void)decode_image(lossless_2x2({ll, 0, 0, 0}));
      ADD_FAILURE() << "accepted LL " << ll;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "decode_image: coefficient " +
                                           std::to_string(ll) +
                                           " outside int32");
    }
  }
  // int32 coefficients decode; where their reconstruction leaves int32 the
  // inverse fails cleanly.  It may lift on int64 because from int32
  // coefficients 8 octaves of the 5/3 inverse stay far inside int64.
  const dsp::Image low = decode_image(lossless_2x2({Limits::min(), 0, 0, 0}));
  EXPECT_EQ(low.data(), std::vector<double>(4, Limits::min() + 128.0));
  EXPECT_THROW(
      (void)decode_image(lossless_2x2({Limits::max(), 0, Limits::max(), 0})),
      std::overflow_error);
  const dsp::ChainBound bound = dsp::lifting_bound(
      dsp::Method::kReversible53, dsp::kDefaultFracBits, /*inverse=*/true,
      /*octaves=*/8, -static_cast<double>(Limits::min()));
  EXPECT_LT(bound.peak, std::ldexp(1.0, 62));
}

TEST(Codec, RejectsUnknownModeByte) {
  std::vector<std::uint8_t> bytes = encode_image(integer_image(16, 3)).bytes;
  EXPECT_NO_THROW((void)decode_image(bytes));
  bytes[2] = 7;  // the mode byte follows the 16-bit magic
  EXPECT_THROW((void)decode_image(bytes), std::invalid_argument);
}

}  // namespace
}  // namespace dwt::codec
