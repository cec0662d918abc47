#include "dsp/dwt2d.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "dsp/fir_filter.hpp"
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

/// Calls f with the table of method `m` on samples of type T -- the tap
/// table of a FIR row or the step table of a lifting row -- doubles for the
/// two float methods and integers for the other five.
template <class T, class F>
void with_table(Method m, int frac_bits, F&& f) {
  if constexpr (std::is_floating_point_v<T>) {
    if (m == Method::kFirFloat) {
      return f(float97_taps(Dwt97FirCoeffs::daubechies97()));
    }
    if (m == Method::kLiftingFloat) {
      return f(float97_steps(LiftingCoeffs::daubechies97()));
    }
    throw std::invalid_argument("dwt2d: " + to_string(m) +
                                " does not transform doubles");
  } else {
    switch (m) {
      case Method::kFirFixed:
        return f(fixed97_taps<T>(Dwt97FirFixedCoeffs::rounded(frac_bits)));
      case Method::kFirHwFloat:
        return f(hw97_taps<T>(Dwt97FirCoeffs::daubechies97()));
      case Method::kLiftingFixed:
        return f(fixed97_steps<T>(LiftingFixedCoeffs::rounded(frac_bits)));
      case Method::kLiftingHwFloat:
        return f(hw97_steps<T>(LiftingCoeffs::daubechies97()));
      case Method::kReversible53:
        return f(reversible53_steps<T>());
      default:
        throw std::invalid_argument("dwt2d: " + to_string(m) +
                                    " is not an integer method");
    }
  }
}

/// The line kernel of a table: a FIR bank over taps, a ladder over steps.
template <class T, class C>
FirBank<FirTaps<T, C>> kernel_of(const FirTaps<T, C>& taps, bool inverse) {
  return {taps, inverse};
}
template <class Mul, std::size_t Steps>
LiftingLadder<Mul, Steps> kernel_of(const StepTable<Mul, Steps>& steps,
                                    bool inverse) {
  return {steps, inverse};
}

template <class T>
void transform(Method m, PlaneView<T> p, int octaves, int frac_bits,
               bool inverse) {
  with_table<T>(m, frac_bits, [&](const auto& table) {
    sweep_octaves(p, octaves, inverse, kernel_of(table, inverse));
  });
}

/// A pass bound per (method, frac_bits, direction), computed once into a
/// fixed table that later calls read without a lock.  A method without an
/// integer table, or a frac_bits outside the coefficients' range, is
/// computed on every call, so it throws on every call.
PassBound cached_pass_bound(Method m, int frac_bits, bool inverse) {
  const auto compute = [&] {
    PassBound b;
    with_table<std::int64_t>(m, frac_bits, [&](const auto& table) {
      b = pass_bound(table, inverse);
    });
    return b;
  };
  // Only what cannot throw runs under call_once: after a throwing call,
  // call_once as ThreadSanitizer intercepts it never returns.
  constexpr int kFracBits = common::Fixed::kMaxFracBits + 1;
  if (!is_fixed(m) || frac_bits < 0 || frac_bits >= kFracBits) {
    return compute();
  }
  static struct {
    std::once_flag once;
    PassBound bound;
  } table[static_cast<int>(Method::kReversible53) + 1][kFracBits][2];
  auto& entry = table[static_cast<int>(m)][frac_bits][inverse ? 1 : 0];
  std::call_once(entry.once, [&] { entry.bound = compute(); });
  return entry.bound;
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

/// The int32 entry points' kernel -- the scan for the window's largest
/// magnitude and the transform on int32 -- as one build of the templates
/// above.  There are two builds: a portable one, and where the compiler can
/// target it (x86-64 GCC or Clang) an AVX2 one, whose 8-lane 32-bit
/// multiplies the portable x86-64 baseline (SSE2) lacks.
struct Int32Kernel {
  double (*max_abs)(PlaneView<std::int32_t>);
  void (*transform)(Method, PlaneView<std::int32_t>, int, int, bool);
};

double max_abs_portable(PlaneView<std::int32_t> p) { return max_abs(p); }

void transform_portable(Method m, PlaneView<std::int32_t> p, int octaves,
                        int frac_bits, bool inverse) {
  transform(m, p, octaves, frac_bits, inverse);
}

constexpr Int32Kernel kPortable{max_abs_portable, transform_portable};

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DWT_DSP_AVX2_BUILD 1
// The same templates compiled for AVX2: flatten inlines every call below
// these two, so the whole kernel is AVX2 code, chosen at run time by the
// manual check in kernel_build_supported.  (An IFUNC-based target_clones
// would resolve before a ThreadSanitizer runtime starts and crash it.)
[[gnu::target("avx2"), gnu::flatten]] double max_abs_avx2(
    PlaneView<std::int32_t> p) {
  return max_abs(p);
}

[[gnu::target("avx2"), gnu::flatten]] void transform_avx2(
    Method m, PlaneView<std::int32_t> p, int octaves, int frac_bits,
    bool inverse) {
  transform(m, p, octaves, frac_bits, inverse);
}

constexpr Int32Kernel kAvx2{max_abs_avx2, transform_avx2};
#endif

const Int32Kernel& build_of(KernelBuild build) {
  if (!kernel_build_supported(build)) {
    throw std::invalid_argument("dwt2d: kernel build not supported here");
  }
#ifdef DWT_DSP_AVX2_BUILD
  if (build == KernelBuild::kAvx2) return kAvx2;
#endif
  return kPortable;
}

/// The build the entry points run, chosen the first time one is needed.
const Int32Kernel& chosen_kernel() {
  static const Int32Kernel& chosen =
      build_of(kernel_build_supported(KernelBuild::kAvx2)
                    ? KernelBuild::kAvx2
                    : KernelBuild::kPortable);
  return chosen;
}

int lift_int32(const Int32Kernel& kernel, Method m, PlaneView<std::int32_t> p,
               int octaves, int frac_bits, bool inverse) {
  require_window(p, octaves, inverse ? "dwt2d_inverse" : "dwt2d_forward");
  if (!is_fixed(m)) {
    throw std::invalid_argument("dwt2d: " + to_string(m) +
                                " does not transform integers");
  }
  const ChainBound bound =
      lifting_bound(m, frac_bits, inverse, octaves, kernel.max_abs(p));
  // The FIR bank has no int32 path: its two methods filter on int64.
  const bool fir = m == Method::kFirFixed || m == Method::kFirHwFloat;
  if (!fir && fits_int32(bound)) {
    kernel.transform(m, p, octaves, frac_bits, inverse);
    return 32;
  }
  if (!fits_int64(bound)) {
    throw std::overflow_error("dwt2d: " + to_string(m) + " at frac_bits " +
                              std::to_string(frac_bits) +
                              " can overflow int64 on this window");
  }
  Plane<std::int64_t> wide(p.width, p.height);
  copy_window(p, wide.view(), [](std::int32_t v) { return std::int64_t{v}; });
  transform(m, wide.view(), octaves, frac_bits, inverse);
  copy_window(wide.view(), p,
              [](std::int64_t v) { return narrow_to_int32(v); });
  return 64;
}

void lift_doubles(Method m, PlaneView<double> p, int octaves, int frac_bits,
                  bool inverse) {
  require_window(p, octaves, inverse ? "dwt2d_inverse" : "dwt2d_forward");
  if (!is_fixed(m)) return transform(m, p, octaves, frac_bits, inverse);
  Plane<std::int32_t> q(p.width, p.height);
  copy_window(p, q.view(), [](double v) { return round_to_int32(v); });
  (void)lift_int32(chosen_kernel(), m, q.view(), octaves, frac_bits, inverse);
  copy_window(q.view(), p,
              [](std::int32_t v) { return static_cast<double>(v); });
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
  return lift_int32(chosen_kernel(), m, window, octaves, frac_bits,
                    /*inverse=*/false);
}

int dwt2d_inverse(Method m, PlaneView<std::int32_t> window, int octaves,
                  int frac_bits) {
  return lift_int32(chosen_kernel(), m, window, octaves, frac_bits,
                    /*inverse=*/true);
}

bool kernel_build_supported(KernelBuild build) {
  if (build == KernelBuild::kPortable) return true;
#ifdef DWT_DSP_AVX2_BUILD
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

int dwt2d_int32(KernelBuild build, Method m, PlaneView<std::int32_t> window,
                int octaves, bool inverse, int frac_bits) {
  return lift_int32(build_of(build), m, window, octaves, frac_bits, inverse);
}

void level_shift_forward(Image& img) {
  for (double& v : img.data()) v -= kLevelShift;
}

void level_shift_inverse(Image& img) {
  for (double& v : img.data()) v += kLevelShift;
}

void round_coefficients(Image& plane) {
  for (double& v : plane.data()) v = std::round(v);
}

}  // namespace dwt::dsp
