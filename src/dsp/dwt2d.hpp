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
/// every column then every row.  `line(first, n, stride, lanes)` transforms
/// `lanes` adjacent lines of n values in place, value i of line j being
/// first[i * stride + j]: the row pass hands it one row at a time, the
/// column pass every column at once, so a kernel (a lifting ladder or a FIR
/// bank) works on whole rows as vectors.  A forward line leaves ceil(n/2)
/// low then floor(n/2) high values.
template <class T, class Line>
void sweep_octave(T* plane, std::size_t pitch, std::size_t w, std::size_t h,
                  bool inverse, Line&& line) {
  const auto rows = [&] {
    for (std::size_t y = 0; y < h; ++y) line(plane + y * pitch, w, 1, 1);
  };
  const auto cols = [&] { line(plane, h, pitch, w); };
  if (inverse) {
    cols();
    rows();
  } else {
    rows();
    cols();
  }
}

/// The int32 guard of an integer lifting method: sound bounds for `octaves`
/// 2-D octaves in one direction from values inside +-max_abs.  The
/// transform lifts on int32 when fits_int32 holds for it, else on int64.
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
/// 64.  The narrowing is the plane's one narrow_to_int32.
int dwt2d_forward(Method m, PlaneView<std::int32_t> window, int octaves,
                  int frac_bits = kDefaultFracBits);
int dwt2d_inverse(Method m, PlaneView<std::int32_t> window, int octaves,
                  int frac_bits = kDefaultFracBits);

/// DC level shift helpers (x -> x - 128 and back).
void level_shift_forward(Image& img);
void level_shift_inverse(Image& img);

/// Rounds every coefficient to the nearest integer -- the coefficient
/// truncation a fixed-width hardware transform output implies, and the
/// operation that makes even the floating-point round trip of Table 2 lossy.
void round_coefficients(Image& plane);

}  // namespace dwt::dsp
