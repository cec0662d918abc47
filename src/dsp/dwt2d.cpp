#include "dsp/dwt2d.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "dsp/lifting_ladder.hpp"

namespace dwt::dsp {
namespace {

void require_nonzero(std::size_t w, std::size_t h, const char* who) {
  if (w == 0 || h == 0) {
    throw std::invalid_argument(std::string(who) +
                                ": region must have non-zero sides");
  }
}

/// Low-pass side of the ceil/floor split an N-sample line produces.
std::size_t low_size(std::size_t n) { return (n + 1) / 2; }

template <class T>
void require_window(PlaneView<T> p, int octaves, const char* who) {
  require_nonzero(p.width, p.height, who);
  if (octaves < 1) throw std::invalid_argument(std::string(who) + ": octaves < 1");
}

/// The regions the octaves of a w x h transform cover, outermost first.
std::vector<std::pair<std::size_t, std::size_t>> octave_regions(
    std::size_t w, std::size_t h, int octaves) {
  std::vector<std::pair<std::size_t, std::size_t>> sizes;
  for (int o = 0; o < octaves; ++o) {
    sizes.emplace_back(w, h);
    w = low_size(w);
    h = low_size(h);
  }
  return sizes;
}

/// Every octave of a transform through `line`: forward from the whole
/// window inwards, inverse from the smallest LL outwards.
template <class T, class Line>
void sweep_octaves(PlaneView<T> p, int octaves, bool inverse, Line&& line) {
  const auto sizes = octave_regions(p.width, p.height, octaves);
  const auto one = [&](const std::pair<std::size_t, std::size_t>& wh) {
    sweep_octave(p.data, p.pitch, wh.first, wh.second, inverse, line);
  };
  if (inverse) {
    std::for_each(sizes.rbegin(), sizes.rend(), one);
  } else {
    std::for_each(sizes.begin(), sizes.end(), one);
  }
}

/// Calls f with the step table of integer method `m` on samples of type T.
template <class T, class F>
void with_integer_steps(Method m, int frac_bits, F&& f) {
  switch (m) {
    case Method::kLiftingFixed:
      return f(fixed97_steps<T>(LiftingFixedCoeffs::rounded(frac_bits)));
    case Method::kLiftingHwFloat:
      return f(hw97_steps<T>(LiftingCoeffs::daubechies97()));
    case Method::kReversible53:
      return f(reversible53_steps<T>());
    default:
      throw std::invalid_argument(
          "dwt2d: " + to_string(m) + " is not an integer lifting method");
  }
}

template <class T>
void lift_integer(Method m, PlaneView<T> p, int octaves, int frac_bits,
                  bool inverse) {
  with_integer_steps<T>(m, frac_bits, [&](const auto& steps) {
    sweep_octaves(p, octaves, inverse, LiftingLadder(steps, inverse));
  });
}

/// A pass bound per (method, frac_bits, direction), computed once.
PassBound cached_pass_bound(Method m, int frac_bits, bool inverse) {
  static std::mutex mutex;
  static std::map<std::tuple<Method, int, bool>, PassBound> cache;
  const std::lock_guard<std::mutex> lock(mutex);
  const auto key = std::make_tuple(m, frac_bits, inverse);
  if (const auto it = cache.find(key); it != cache.end()) return it->second;
  PassBound b;
  with_integer_steps<std::int64_t>(m, frac_bits, [&](const auto& steps) {
    b = pass_bound(steps, inverse);
  });
  return cache.emplace(key, b).first->second;
}

/// The largest magnitude in a window (a plain min/max reduction, which
/// vectorises where minmax_element does not).
template <class T>
double max_abs(PlaneView<T> p) {
  T lo = 0, hi = 0;
  for (std::size_t y = 0; y < p.height; ++y) {
    const T* row = p.row(y);
    for (std::size_t x = 0; x < p.width; ++x) {
      lo = std::min(lo, row[x]);
      hi = std::max(hi, row[x]);
    }
  }
  return std::max(-static_cast<double>(lo), static_cast<double>(hi));
}

/// Copies window `from` into `to` (same shape), converting each value.
template <class From, class To, class Convert>
void copy_window(PlaneView<From> from, PlaneView<To> to, Convert convert) {
  for (std::size_t y = 0; y < from.height; ++y) {
    std::transform(from.row(y), from.row(y) + from.width, to.row(y), convert);
  }
}

int lift_int32(Method m, PlaneView<std::int32_t> p, int octaves, int frac_bits,
               bool inverse) {
  require_window(p, octaves, inverse ? "dwt2d_inverse" : "dwt2d_forward");
  const ChainBound b =
      lifting_bound(m, frac_bits, inverse, octaves, max_abs(p));
  if (fits_int32(b)) {
    lift_integer(m, p, octaves, frac_bits, inverse);
    return 32;
  }
  Plane<std::int64_t> wide(p.width, p.height);
  copy_window(p, wide.view(), [](std::int32_t v) { return std::int64_t{v}; });
  lift_integer(m, wide.view(), octaves, frac_bits, inverse);
  copy_window(wide.view(), p,
              [](std::int64_t v) { return narrow_to_int32(v); });
  return 64;
}

/// The FIR methods run a line at a time through their 1-D functions.
void fir_octaves(Method m, PlaneView<double> p, int octaves, int frac_bits,
                 bool inverse) {
  std::vector<double> x;
  const auto line = [&](double* first, std::size_t n, std::size_t stride,
                        std::size_t lanes) {
    for (std::size_t j = 0; j < lanes; ++j) {
      x.resize(n);
      for (std::size_t k = 0; k < n; ++k) x[k] = first[k * stride + j];
      if (inverse) {
        const std::span<const double> packed(x);
        x = dwt1d_inverse(m, packed.first(low_size(n)),
                          packed.subspan(low_size(n)), frac_bits);
      } else {
        Subbands1d s = dwt1d_forward(m, x, frac_bits);
        x = std::move(s.low);
        x.insert(x.end(), s.high.begin(), s.high.end());
      }
      for (std::size_t k = 0; k < n; ++k) first[k * stride + j] = x[k];
    }
  };
  sweep_octaves(p, octaves, inverse, line);
}

void lift_doubles(Method m, PlaneView<double> p, int octaves, int frac_bits,
                  bool inverse) {
  require_window(p, octaves, inverse ? "dwt2d_inverse" : "dwt2d_forward");
  switch (m) {
    case Method::kLiftingFloat:
      return sweep_octaves(
          p, octaves, inverse,
          LiftingLadder(float97_steps(LiftingCoeffs::daubechies97()), inverse));
    case Method::kLiftingFixed:
    case Method::kLiftingHwFloat:
    case Method::kReversible53: {
      Plane<std::int32_t> q(p.width, p.height);
      copy_window(p, q.view(), [](double v) { return round_to_int32(v); });
      (void)lift_int32(m, q.view(), octaves, frac_bits, inverse);
      copy_window(q.view(), p,
                  [](std::int32_t v) { return static_cast<double>(v); });
      return;
    }
    case Method::kFirFloat:
    case Method::kFirFixed:
    case Method::kFirHwFloat:
      return fir_octaves(m, p, octaves, frac_bits, inverse);
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

bool is_integer_lifting(Method m) {
  return m == Method::kLiftingFixed || m == Method::kLiftingHwFloat ||
         m == Method::kReversible53;
}

ChainBound lifting_bound(Method m, int frac_bits, bool inverse, int octaves,
                         double max_abs) {
  return chain_bound(cached_pass_bound(m, frac_bits, inverse), 2 * octaves,
                     max_abs);
}

void dwt2d_forward(Method m, Image& plane, int octaves, int frac_bits) {
  lift_doubles(m, plane.view(), octaves, frac_bits, /*inverse=*/false);
}

void dwt2d_inverse(Method m, Image& plane, int octaves, int frac_bits) {
  lift_doubles(m, plane.view(), octaves, frac_bits, /*inverse=*/true);
}

void dwt2d_forward(Method m, PlaneView<double> window, int octaves,
                   int frac_bits) {
  lift_doubles(m, window, octaves, frac_bits, /*inverse=*/false);
}

void dwt2d_inverse(Method m, PlaneView<double> window, int octaves,
                   int frac_bits) {
  lift_doubles(m, window, octaves, frac_bits, /*inverse=*/true);
}

int dwt2d_forward(Method m, PlaneView<std::int32_t> window, int octaves,
                  int frac_bits) {
  return lift_int32(m, window, octaves, frac_bits, /*inverse=*/false);
}

int dwt2d_inverse(Method m, PlaneView<std::int32_t> window, int octaves,
                  int frac_bits) {
  return lift_int32(m, window, octaves, frac_bits, /*inverse=*/true);
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
