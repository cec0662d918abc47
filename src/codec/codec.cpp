#include "codec/codec.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

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

/// f(v) for every coefficient v of band rectangle r, row-major.
template <class T, class F>
std::vector<std::int64_t> band_values(const dsp::Plane<T>& plane,
                                      const dsp::SubbandRect& r, F f) {
  std::vector<std::int64_t> out;
  out.reserve(r.w * r.h);
  for (std::size_t y = r.y0; y < r.y0 + r.h; ++y) {
    for (std::size_t x = r.x0; x < r.x0 + r.w; ++x) {
      out.push_back(f(plane.at(x, y)));
    }
  }
  return out;
}

/// Stores f(v) for every value v the stream holds for band rectangle r.
template <class T, class F>
void scatter_band(dsp::Plane<T>& plane, const dsp::SubbandRect& r,
                  const std::vector<std::int32_t>& values, F f) {
  std::size_t i = 0;
  for (std::size_t y = r.y0; y < r.y0 + r.h; ++y) {
    for (std::size_t x = r.x0; x < r.x0 + r.w; ++x) {
      plane.at(x, y) = f(values[i++]);
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

  // The lossless mode lifts the integer wavelet on an int32 plane, the
  // lossy mode the float wavelet on doubles; both write int32 values only.
  const bool lossless = opt.mode == CodecMode::kLossless53;
  dsp::Plane<std::int32_t> ints;
  dsp::Image reals;
  if (lossless) {
    ints = dsp::to_int32_plane(image, dsp::kLevelShift);
    (void)dsp::dwt2d_forward(dsp::Method::kReversible53, ints.view(),
                             opt.octaves);
  } else {
    reals = image;
    dsp::level_shift_forward(reals);
    dsp::dwt2d_forward(dsp::Method::kLiftingFloat, reals, opt.octaves);
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
    const dsp::DeadzoneQuantizer q{band_step(ref, opt.octaves, opt.base_step)};
    const std::vector<std::int64_t> values =
        lossless ? band_values(ints, r, [](std::int32_t v) { return v; })
                 : band_values(reals, r, [&q](double v) {
                     return dsp::narrow_to_int32(q.quantize(v));
                   });
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
  const bool lossless =
      mode_byte == static_cast<std::uint64_t>(CodecMode::kLossless53);
  // Every coefficient costs at least one bit, so a header declaring more
  // pixels than bits remain is corrupt -- reject it before allocating.
  if (width * height > bytes.size() * 8 - r.position()) {
    throw std::invalid_argument("decode_image: dimensions exceed stream");
  }

  dsp::Plane<std::int32_t> ints;
  dsp::Image reals;
  if (lossless) {
    ints = dsp::Plane<std::int32_t>(width, height);
  } else {
    reals = dsp::Image(width, height);
  }
  for (const BandRef& ref : band_order(octaves)) {
    const dsp::SubbandRect rect =
        dsp::subband_rect(width, height, ref.octave, ref.band);
    const int k = static_cast<int>(r.read_bits(5));
    // No encoder writes a value outside int32.  Rejecting one here bounds
    // the lossless inverse: from int32 coefficients the int32 guard's chain
    // bound for 8 octaves of the 5/3 inverse stays far inside int64, so its
    // int64 fallback cannot overflow.
    std::vector<std::int32_t> values(rect.w * rect.h);
    try {
      for (std::int32_t& v : values) {
        v = dsp::narrow_to_int32(read_signed_exp_golomb(r, k));
      }
    } catch (const std::overflow_error& e) {
      throw std::invalid_argument(std::string("decode_image: ") + e.what());
    }
    if (lossless) {
      scatter_band(ints, rect, values, [](std::int32_t v) { return v; });
    } else {
      const dsp::DeadzoneQuantizer q{band_step(ref, octaves, base_step)};
      scatter_band(reals, rect, values,
                   [&q](std::int32_t v) { return q.dequantize(v); });
    }
  }

  if (lossless) {
    (void)dsp::dwt2d_inverse(dsp::Method::kReversible53, ints.view(), octaves);
    dsp::Image out = dsp::to_image(ints);
    dsp::level_shift_inverse(out);
    return out;
  }
  dsp::dwt2d_inverse(dsp::Method::kLiftingFloat, reals, octaves);
  dsp::level_shift_inverse(reals);
  return dsp::clamped_u8(reals);
}

}  // namespace dwt::codec
