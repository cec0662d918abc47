// Separable 2-D DWT (paper figure 1): one octave applies the 1-D transform
// to every row then every column of the current LL region, packing low-pass
// coefficients into the top-left quadrant (LL | HL / LH | HH).  Multi-octave
// transforms recurse on LL.  This is the one place a Method is dispatched:
// each method is a line kernel -- a FIR bank over a tap table
// (dsp/fir_filter.hpp) or a lifting ladder over a step table
// (dsp/lifting_ladder.hpp) -- and one octave sweep drives both.  A 1-D
// transform is a one-row window (the column pass of a w x 1 window does
// nothing).  Includes the DC level shift used for 8-bit imagery (JPEG2000:
// subtract 128 so samples are signed 8-bit, matching the paper's signed
// 8-bit hardware inputs).
#pragma once

#include <cstddef>
#include <cstdint>

#include "dsp/dwt1d.hpp"
#include "dsp/image.hpp"
#include "dsp/lifting_bound.hpp"
#include "dsp/plane.hpp"

namespace dwt::dsp {

/// Identifies one sub-band of a multi-octave decomposition.
enum class Band { kLL, kHL, kLH, kHH };

struct SubbandRect {
  std::size_t x0, y0, w, h;
};

/// Geometry of sub-band `band` at 1-based `octave` for a w x h plane.
[[nodiscard]] SubbandRect subband_rect(std::size_t w, std::size_t h,
                                       int octave, Band band);

/// The octave sweep every 2-D transform shares: one octave over the
/// top-left w x h region of a row-major plane holding `pitch` values per
/// row.  The forward sweep lifts every row then every column, the inverse
/// every column then every row.  `line(first, n, stride, lanes,
/// lane_stride)` transforms `lanes` lines of n values in place, value i of
/// line j being first[i * stride + j * lane_stride]: each pass is one call,
/// the rows (first, w, 1, h, pitch) and the columns (first, h, pitch, w, 1),
/// so a kernel (a lifting ladder or a FIR bank) sees the whole pass at once.
/// A forward line leaves ceil(n/2) low then floor(n/2) high values.
template <class T, class Line>
void sweep_octave(T* plane, std::size_t pitch, std::size_t w, std::size_t h,
                  bool inverse, Line&& line) {
  const auto rows = [&] { line(plane, w, 1, h, pitch); };
  const auto cols = [&] { line(plane, h, pitch, w, 1); };
  if (inverse) {
    cols();
    rows();
  } else {
    rows();
    cols();
  }
}

/// Every octave of a transform through `line`: forward from the whole
/// window inwards, inverse from the smallest LL outwards.  Octave i + 1
/// lifts the LL region that i halvings of the window leave; the regions
/// are recomputed rather than listed, so a sweep allocates nothing.
template <class T, class Line>
void sweep_octaves(PlaneView<T> p, int octaves, bool inverse, Line&& line) {
  for (int i = 0; i < octaves; ++i) {
    std::size_t w = p.width, h = p.height;
    // Halving a 1 x 1 region leaves it 1 x 1.
    for (int o = inverse ? octaves - 1 - i : i; o > 0 && (w > 1 || h > 1);
         --o) {
      w = (w + 1) / 2;
      h = (h + 1) / 2;
    }
    sweep_octave(p.data, p.pitch, w, h, inverse, line);
  }
}

/// The int32 guard of an integer method: sound bounds for `octaves` 2-D
/// octaves in one direction from values inside +-max_abs.  A lifting method
/// lifts on int32 when fits_int32 holds for it, else on int64; either kind
/// runs on int64 only when fits_int64 holds.
[[nodiscard]] ChainBound lifting_bound(Method m, int frac_bits, bool inverse,
                                       int octaves, double max_abs);

/// Full multi-octave transform of the whole plane.  Dimensions are
/// arbitrary: every octave recurses on the ceil(w/2) x ceil(h/2) LL region
/// (a 1 x 1 LL is a fixed point, so any octave count is legal).
void dwt2d_forward(Method m, Image& plane, int octaves,
                   int frac_bits = kDefaultFracBits);
void dwt2d_inverse(Method m, Image& plane, int octaves,
                   int frac_bits = kDefaultFracBits);

/// The same transforms over a window of doubles (a tile of a larger plane,
/// the LL region an octave of a larger transform covers, or a one-row 1-D
/// signal).  The five integer methods (is_fixed) round the window once on
/// entry into an int32 plane (round_to_int32) and transform it through the
/// int32 plane entry points below, so a sample that is not finite, or a
/// sample or a result outside int32, throws std::overflow_error.
void dwt2d_forward(Method m, PlaneView<double> window, int octaves,
                   int frac_bits = kDefaultFracBits);
void dwt2d_inverse(Method m, PlaneView<double> window, int octaves,
                   int frac_bits = kDefaultFracBits);

/// The integer plane entry points: the five integer methods, in place on an
/// int32 window (std::invalid_argument for a float method).  The lifting
/// methods lift on int32 where the guard admits the window's largest
/// magnitude, the FIR methods never; otherwise the transform runs on an
/// int64 copy of the window narrowed back (std::overflow_error if a result
/// leaves int32).  They return the sample width they transformed on: 32 or
/// 64.  The narrowing is the plane's one narrow_to_int32.  Where the guard
/// cannot rule out int64 overflow either (frac_bits near the top of its
/// 0..60 range), they throw std::overflow_error before transforming.
int dwt2d_forward(Method m, PlaneView<std::int32_t> window, int octaves,
                  int frac_bits = kDefaultFracBits);
int dwt2d_inverse(Method m, PlaneView<std::int32_t> window, int octaves,
                  int frac_bits = kDefaultFracBits);

/// The builds of the int32 plane entry points' kernel: the same lifting
/// templates compiled portably and, on x86-64 with GCC or Clang, for AVX2.
/// The entry points run the AVX2 build on a CPU that has AVX2, chosen once
/// on first use; nothing else selects it.  dwt2d_int32 runs one build by
/// name (std::invalid_argument where it is not supported), so the two can
/// be compared; they are bit-identical.
enum class KernelBuild { kPortable, kAvx2 };
[[nodiscard]] bool kernel_build_supported(KernelBuild build);
int dwt2d_int32(KernelBuild build, Method m, PlaneView<std::int32_t> window,
                int octaves, bool inverse, int frac_bits = kDefaultFracBits);

/// DC level shift helpers (x -> x - kLevelShift and back).
void level_shift_forward(Image& img);
void level_shift_inverse(Image& img);

/// Rounds every coefficient to the nearest integer -- the coefficient
/// truncation a fixed-width hardware transform output implies, and the
/// operation that makes even the floating-point round trip of Table 2 lossy.
void round_coefficients(Image& plane);

}  // namespace dwt::dsp
