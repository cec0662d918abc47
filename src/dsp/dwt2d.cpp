#include "dsp/dwt2d.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/lifting_ladder.hpp"

namespace dwt::dsp {
namespace {

void require_nonzero(std::size_t w, std::size_t h, const char* who) {
  if (w == 0 || h == 0) {
    throw std::invalid_argument(std::string(who) +
                                ": region must have non-zero sides");
  }
}

void require_region(const Image& plane, std::size_t w, std::size_t h,
                    const char* who) {
  require_nonzero(w, h, who);
  if (w > plane.width() || h > plane.height()) {
    throw std::out_of_range(std::string(who) + ": region exceeds the plane");
  }
}

/// Low-pass side of the ceil/floor split an N-sample line produces.
std::size_t low_size(std::size_t n) { return (n + 1) / 2; }

/// The integer ladders lift one int64 copy of the region, rounded on entry
/// as the integer 1-D functions round their input.
template <class Mul, std::size_t Steps>
void lift_int_region(const StepTable<Mul, Steps>& steps, Image& plane,
                     std::size_t w, std::size_t h, bool inverse) {
  double* p = plane.data().data();
  const std::size_t pitch = plane.width();
  std::vector<std::int64_t> r(w * h);
  for (std::size_t y = 0; y < h; ++y) {
    std::transform(p + y * pitch, p + y * pitch + w, r.begin() + y * w,
                   [](double v) { return std::llround(v); });
  }
  sweep_octave(r.data(), w, w, h, inverse, LiftingLadder(steps, inverse));
  for (std::size_t y = 0; y < h; ++y) {
    std::copy_n(r.begin() + y * w, w, p + y * pitch);
  }
}

/// The FIR methods run a line at a time through their 1-D functions.
void fir_region(Method m, Image& plane, std::size_t w, std::size_t h,
                int frac_bits, bool inverse) {
  std::vector<double> x;
  const auto line = [&](double* first, std::size_t n, std::size_t stride) {
    x.resize(n);
    for (std::size_t k = 0; k < n; ++k) x[k] = first[k * stride];
    if (inverse) {
      const std::span<const double> packed(x);
      x = dwt1d_inverse(m, packed.first(low_size(n)),
                        packed.subspan(low_size(n)), frac_bits);
    } else {
      Subbands1d s = dwt1d_forward(m, x, frac_bits);
      x = std::move(s.low);
      x.insert(x.end(), s.high.begin(), s.high.end());
    }
    for (std::size_t k = 0; k < n; ++k) first[k * stride] = x[k];
  };
  sweep_octave(plane.data().data(), plane.width(), w, h, inverse, line);
}

void octave(Method m, Image& plane, std::size_t w, std::size_t h,
            int frac_bits, bool inverse) {
  switch (m) {
    case Method::kLiftingFloat:
      return sweep_octave(
          plane.data().data(), plane.width(), w, h, inverse,
          LiftingLadder(float97_steps(LiftingCoeffs::daubechies97()), inverse));
    case Method::kLiftingFixed:
      return lift_int_region(
          fixed97_steps(LiftingFixedCoeffs::rounded(frac_bits)), plane, w, h,
          inverse);
    case Method::kLiftingHwFloat:
      return lift_int_region(hw97_steps(LiftingCoeffs::daubechies97()), plane,
                             w, h, inverse);
    case Method::kReversible53:
      return lift_int_region(kReversible53Steps, plane, w, h, inverse);
    case Method::kFirFloat:
    case Method::kFirFixed:
    case Method::kFirHwFloat:
      return fir_region(m, plane, w, h, frac_bits, inverse);
  }
  throw std::invalid_argument("dwt2d: unknown Method");
}

}  // namespace

SubbandRect subband_rect(std::size_t w, std::size_t h, int octave, Band band) {
  if (octave < 1) throw std::invalid_argument("subband_rect: octave < 1");
  require_nonzero(w, h, "subband_rect");
  // Dimensions of the LL region the requested octave decomposes: each
  // octave keeps the ceil(n/2) low-pass samples of the previous one.
  std::size_t cw = w, ch = h;
  for (int i = 0; i < octave - 1; ++i) {
    cw = low_size(cw);
    ch = low_size(ch);
  }
  const std::size_t lw = low_size(cw), lh = low_size(ch);
  const std::size_t hw = cw - lw, hh = ch - lh;  // floor(cw/2), floor(ch/2)
  switch (band) {
    case Band::kLL: return {0, 0, lw, lh};
    case Band::kHL: return {lw, 0, hw, lh};
    case Band::kLH: return {0, lh, lw, hh};
    case Band::kHH: return {lw, lh, hw, hh};
  }
  throw std::invalid_argument("subband_rect: unknown band");
}

void dwt2d_forward_octave(Method m, Image& plane, std::size_t w, std::size_t h,
                          int frac_bits) {
  require_region(plane, w, h, "dwt2d_forward_octave");
  octave(m, plane, w, h, frac_bits, /*inverse=*/false);
}

void dwt2d_inverse_octave(Method m, Image& plane, std::size_t w, std::size_t h,
                          int frac_bits) {
  require_region(plane, w, h, "dwt2d_inverse_octave");
  octave(m, plane, w, h, frac_bits, /*inverse=*/true);
}

void dwt2d_forward(Method m, Image& plane, int octaves, int frac_bits) {
  if (octaves < 1) throw std::invalid_argument("dwt2d_forward: octaves < 1");
  std::size_t w = plane.width();
  std::size_t h = plane.height();
  for (int o = 0; o < octaves; ++o) {
    dwt2d_forward_octave(m, plane, w, h, frac_bits);
    w = low_size(w);
    h = low_size(h);
  }
}

void dwt2d_inverse(Method m, Image& plane, int octaves, int frac_bits) {
  if (octaves < 1) throw std::invalid_argument("dwt2d_inverse: octaves < 1");
  // Reverse order: smallest LL first.
  std::size_t w = plane.width();
  std::size_t h = plane.height();
  std::vector<std::pair<std::size_t, std::size_t>> sizes;
  for (int o = 0; o < octaves; ++o) {
    sizes.emplace_back(w, h);
    w = low_size(w);
    h = low_size(h);
  }
  for (auto it = sizes.rbegin(); it != sizes.rend(); ++it) {
    dwt2d_inverse_octave(m, plane, it->first, it->second, frac_bits);
  }
}

void level_shift_forward(Image& img) {
  for (double& v : img.data()) v -= 128.0;
}

void level_shift_inverse(Image& img) {
  for (double& v : img.data()) v += 128.0;
}

void round_coefficients(Image& plane) {
  for (double& v : plane.data()) v = std::round(v);
}

}  // namespace dwt::dsp
