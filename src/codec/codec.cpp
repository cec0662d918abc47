#include "codec/codec.hpp"

#include <cmath>
#include <stdexcept>

#include "codec/golomb.hpp"
#include "dsp/dwt2d.hpp"
#include "dsp/quantizer.hpp"

namespace dwt::codec {
namespace {

constexpr std::uint16_t kMagic = 0xD97C;

/// Band coding order: coarsest LL first, then detail bands from coarse to
/// fine (the resolution-progressive order).
struct BandRef {
  int octave;
  dsp::Band band;
};

std::vector<BandRef> band_order(int octaves) {
  std::vector<BandRef> order;
  order.push_back({octaves, dsp::Band::kLL});
  for (int o = octaves; o >= 1; --o) {
    order.push_back({o, dsp::Band::kHL});
    order.push_back({o, dsp::Band::kLH});
    order.push_back({o, dsp::Band::kHH});
  }
  return order;
}

/// Quantizer step per band, mirroring dsp::quantize_plane's allocation.
double band_step(const BandRef& ref, int octaves, double base_step) {
  if (ref.band == dsp::Band::kLL) return base_step * 0.5;
  return base_step * std::pow(2.0, octaves - ref.octave);
}

int choose_order(const std::vector<std::int64_t>& values) {
  if (values.empty()) return 0;
  double mean = 0.0;
  for (const std::int64_t v : values) {
    mean += static_cast<double>(zigzag_encode(v));
  }
  mean /= static_cast<double>(values.size());
  int k = 0;
  while (k < 20 && (1 << (k + 1)) < mean + 1.0) ++k;
  return k;
}

std::vector<std::int64_t> collect_band(const dsp::Image& plane,
                                       const dsp::SubbandRect& r) {
  std::vector<std::int64_t> out;
  out.reserve(r.w * r.h);
  for (std::size_t y = r.y0; y < r.y0 + r.h; ++y) {
    for (std::size_t x = r.x0; x < r.x0 + r.w; ++x) {
      out.push_back(static_cast<std::int64_t>(std::llround(plane.at(x, y))));
    }
  }
  return out;
}

void scatter_band(dsp::Image& plane, const dsp::SubbandRect& r,
                  const std::vector<double>& values) {
  std::size_t i = 0;
  for (std::size_t y = r.y0; y < r.y0 + r.h; ++y) {
    for (std::size_t x = r.x0; x < r.x0 + r.w; ++x) {
      plane.at(x, y) = values[i++];
    }
  }
}

}  // namespace

EncodedImage encode_image(const dsp::Image& image, const EncodeOptions& opt) {
  if (image.empty() || image.width() > 0xFFFF || image.height() > 0xFFFF) {
    throw std::invalid_argument("encode_image: bad image dimensions");
  }
  if (opt.octaves < 1 || opt.octaves > 8) {
    throw std::invalid_argument("encode_image: bad octave count");
  }
  if (opt.mode == CodecMode::kLossy97 && opt.base_step <= 0) {
    throw std::invalid_argument("encode_image: bad quantizer step");
  }

  dsp::Image plane = image;
  dsp::level_shift_forward(plane);
  if (opt.mode == CodecMode::kLossless53) {
    dsp::round_coefficients(plane);  // integer pixels for the integer wavelet
    dsp::dwt2d_forward(dsp::Method::kReversible53, plane, opt.octaves);
  } else {
    dsp::dwt2d_forward(dsp::Method::kLiftingFloat, plane, opt.octaves);
  }

  BitWriter w;
  w.write_bits(kMagic, 16);
  w.write_bits(static_cast<std::uint64_t>(opt.mode), 8);
  w.write_bits(image.width(), 16);
  w.write_bits(image.height(), 16);
  w.write_bits(static_cast<std::uint64_t>(opt.octaves), 8);
  const auto step_q = static_cast<std::uint64_t>(
      std::llround(opt.base_step * 16.0));
  w.write_bits(step_q, 16);

  for (const BandRef& ref : band_order(opt.octaves)) {
    const dsp::SubbandRect r =
        dsp::subband_rect(image.width(), image.height(), ref.octave, ref.band);
    std::vector<std::int64_t> values;
    if (opt.mode == CodecMode::kLossy97) {
      const dsp::DeadzoneQuantizer q{band_step(ref, opt.octaves,
                                               opt.base_step)};
      values.reserve(r.w * r.h);
      for (std::size_t y = r.y0; y < r.y0 + r.h; ++y) {
        for (std::size_t x = r.x0; x < r.x0 + r.w; ++x) {
          values.push_back(q.quantize(plane.at(x, y)));
        }
      }
    } else {
      values = collect_band(plane, r);
    }
    const int k = choose_order(values);
    w.write_bits(static_cast<std::uint64_t>(k), 5);
    for (const std::int64_t v : values) {
      write_signed_exp_golomb(w, v, k);
    }
  }
  return EncodedImage{w.finish()};
}

dsp::Image decode_image(const std::vector<std::uint8_t>& bytes) {
  BitReader r(bytes);
  if (r.read_bits(16) != kMagic) {
    throw std::invalid_argument("decode_image: bad magic");
  }
  const std::uint64_t mode_byte = r.read_bits(8);
  const auto width = static_cast<std::size_t>(r.read_bits(16));
  const auto height = static_cast<std::size_t>(r.read_bits(16));
  const auto octaves = static_cast<int>(r.read_bits(8));
  const double base_step = static_cast<double>(r.read_bits(16)) / 16.0;
  if (width == 0 || height == 0 || octaves < 1 || octaves > 8) {
    throw std::invalid_argument("decode_image: corrupt header");
  }
  if (mode_byte != static_cast<std::uint64_t>(CodecMode::kLossy97) &&
      mode_byte != static_cast<std::uint64_t>(CodecMode::kLossless53)) {
    throw std::invalid_argument("decode_image: unknown codec mode");
  }
  const auto mode = static_cast<CodecMode>(mode_byte);
  // Every coefficient costs at least one bit, so a header declaring more
  // pixels than bits remain is corrupt -- reject it before allocating.
  if (width * height > bytes.size() * 8 - r.position()) {
    throw std::invalid_argument("decode_image: dimensions exceed stream");
  }

  dsp::Image plane(width, height);
  for (const BandRef& ref : band_order(octaves)) {
    const dsp::SubbandRect rect =
        dsp::subband_rect(width, height, ref.octave, ref.band);
    const int k = static_cast<int>(r.read_bits(5));
    std::vector<double> values;
    values.reserve(rect.w * rect.h);
    const dsp::DeadzoneQuantizer q{
        mode == CodecMode::kLossy97 ? band_step(ref, octaves, base_step) : 1.0};
    for (std::size_t i = 0; i < rect.w * rect.h; ++i) {
      const std::int64_t v = read_signed_exp_golomb(r, k);
      values.push_back(mode == CodecMode::kLossy97
                           ? q.dequantize(v)
                           : static_cast<double>(v));
    }
    scatter_band(plane, rect, values);
  }

  if (mode == CodecMode::kLossless53) {
    dsp::dwt2d_inverse(dsp::Method::kReversible53, plane, octaves);
  } else {
    dsp::dwt2d_inverse(dsp::Method::kLiftingFloat, plane, octaves);
  }
  dsp::level_shift_inverse(plane);
  return mode == CodecMode::kLossless53 ? plane : plane.clamped_u8();
}

}  // namespace dwt::codec
