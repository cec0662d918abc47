// The 9/7 Daubechies FIR filter bank (paper figure 2): the analysis and
// synthesis coefficient sets, their integer-rounded variant, whole-sample
// symmetric boundary extension, and the one filter-bank line kernel.  The
// kernel runs over a tap table, as the lifting ladder runs over a step table
// (dsp/lifting_ladder.hpp), and the library has three, one per FIR row of
// Table 2: float taps, n/2^f taps whose product sum is shifted right by f,
// and full-precision taps whose sum is floored into an integer register.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

namespace dwt::dsp {

/// The four 9/7 Daubechies biorthogonal filters in JPEG2000 normalization
/// (analysis low-pass DC gain 1, synthesis low-pass DC gain 2).
/// All filters are centered: coefficient index i corresponds to tap offset
/// i - center().
struct Dwt97FirCoeffs {
  std::array<double, 9> analysis_low;
  std::array<double, 7> analysis_high;
  std::array<double, 7> synthesis_low;
  std::array<double, 9> synthesis_high;

  static const Dwt97FirCoeffs& daubechies97();
};

/// Integer-rounded version of the FIR coefficients (scaled by 2^frac_bits,
/// rounded to nearest as common::Fixed rounds), used by the "FIR filter by
/// integer rounded 9/7 Daubechies coefficients" row of paper Table 2.
/// rounded() throws std::invalid_argument for frac_bits outside 0..60.
struct Dwt97FirFixedCoeffs {
  std::array<std::int64_t, 9> analysis_low;
  std::array<std::int64_t, 7> analysis_high;
  std::array<std::int64_t, 7> synthesis_low;
  std::array<std::int64_t, 9> synthesis_high;
  int frac_bits;

  static Dwt97FirFixedCoeffs rounded(int frac_bits);
};

/// Whole-sample symmetric (WSS / mirror-without-repeat) extension index:
/// maps any integer position onto [0, n-1] by reflecting about samples 0 and
/// n-1, the boundary treatment JPEG2000 prescribes for odd-length filters
/// ("mirroring the boundaries of the samples", paper section 2).
[[nodiscard]] std::size_t mirror_index(std::ptrdiff_t pos, std::size_t n);

/// Resource count of the direct-form architecture in paper figure 2
/// (16 adders, 16 multipliers, 8 delay registers).
struct FirArchitectureCost {
  int adders;
  int multipliers;
  int delay_registers;
};
[[nodiscard]] constexpr FirArchitectureCost fir97_architecture_cost() {
  return {.adders = 16, .multipliers = 16, .delay_registers = 8};
}

/// A FIR row of Table 2 as a tap table: the four filters with taps of type
/// C, run on samples of type T.  A product sum becomes a sample as the row's
/// datapath makes it: integer taps are n/2^shift and their sum is shifted
/// right by `shift` (truncation, the hardware adjust); real taps on integer
/// samples floor their sum into the integer register; real taps on real
/// samples keep it.
template <class T, class C>
struct FirTaps {
  using value_type = T;
  using tap_type = C;
  std::array<C, 9> analysis_low;
  std::array<C, 7> analysis_high;
  std::array<C, 7> synthesis_low;
  std::array<C, 9> synthesis_high;
  int shift = 0;

  T sample(C sum) const {
    if constexpr (std::is_integral_v<C>) {
      return static_cast<T>(sum >> shift);
    } else if constexpr (std::is_integral_v<T>) {
      return static_cast<T>(std::floor(sum));
    } else {
      return sum;
    }
  }
};

inline FirTaps<double, double> float97_taps(const Dwt97FirCoeffs& c) {
  return {c.analysis_low, c.analysis_high, c.synthesis_low, c.synthesis_high};
}

template <class T = std::int64_t>
FirTaps<T, std::int64_t> fixed97_taps(const Dwt97FirFixedCoeffs& c) {
  return {c.analysis_low, c.analysis_high, c.synthesis_low, c.synthesis_high,
          c.frac_bits};
}

template <class T = std::int64_t>
FirTaps<T, double> hw97_taps(const Dwt97FirCoeffs& c) {
  return {c.analysis_low, c.analysis_high, c.synthesis_low, c.synthesis_high};
}

/// The filter bank as a line kernel with the lifting ladder's signature:
/// bank(x, n, stride, lanes) filters `lanes` adjacent lines of n samples in
/// place, sample i of line j being x[i * stride + j].  The forward leaves
/// ceil(n/2) low then floor(n/2) high values, and the inverse takes them
/// back; a single sample passes through.  Every output reads up to nine
/// samples of the symmetrically extended line, so the lines go to a scratch
/// buffer first, a block of at most kBlockLanes lanes at a time.
template <class Taps>
class FirBank {
 public:
  using T = typename Taps::value_type;
  static constexpr std::size_t kBlockLanes = 64;

  FirBank(const Taps& taps, bool inverse) : taps_(taps), inverse_(inverse) {}

  void operator()(T* x, std::size_t n, std::size_t stride = 1,
                  std::size_t lanes = 1) {
    if (n < 2) return;  // an even-indexed singleton passes through
    for (std::size_t j = 0; j < lanes; j += kBlockLanes) {
      filter(x + j, n, stride, std::min(kBlockLanes, lanes - j));
    }
  }

 private:
  using C = typename Taps::tap_type;

  // Row i of the scratch holds sample i of every lane: the line itself for
  // the forward, the packed low then high values for the inverse.  Output k
  // of the forward is low value k (the analysis low-pass at position 2k) or
  // high value k - ns (the high-pass at 2(k - ns) + 1).  Output k of the
  // inverse is sample k: the synthesis low-pass over the low values at even
  // positions of the interleaved line, then the synthesis high-pass over
  // the high values at odd ones.
  void filter(T* x, std::size_t n, std::size_t stride, std::size_t lanes) {
    if (scratch_.size() < n * lanes) scratch_.resize(n * lanes);
    T* s = scratch_.data();
    for (std::size_t i = 0; i < n; ++i) {
      std::copy_n(x + i * stride, lanes, s + i * lanes);
    }
    const std::size_t ns = (n + 1) / 2;
    std::array<C, kBlockLanes> sum;
    // Adds taps[t] * (interleaved sample pos + t - center) to every lane's
    // sum, over the taps whose mirrored position has parity `phase` (or any
    // parity, for -1).
    const auto add = [&](std::span<const C> taps, std::size_t pos, int phase) {
      const auto first = static_cast<std::ptrdiff_t>(pos) -
                         static_cast<std::ptrdiff_t>(taps.size() / 2);
      for (std::size_t t = 0; t < taps.size(); ++t) {
        const std::size_t p =
            mirror_index(first + static_cast<std::ptrdiff_t>(t), n);
        if (phase >= 0 && static_cast<int>(p % 2) != phase) continue;
        const std::size_t row = !inverse_ ? p : p % 2 == 0 ? p / 2 : ns + p / 2;
        const T* v = s + row * lanes;
        for (std::size_t j = 0; j < lanes; ++j) sum[j] += taps[t] * v[j];
      }
    };
    for (std::size_t k = 0; k < n; ++k) {
      sum.fill(C{0});
      if (inverse_) {
        add(taps_.synthesis_low, k, 0);
        add(taps_.synthesis_high, k, 1);
      } else if (k < ns) {
        add(taps_.analysis_low, 2 * k, -1);
      } else {
        add(taps_.analysis_high, 2 * (k - ns) + 1, -1);
      }
      T* out = x + k * stride;
      for (std::size_t j = 0; j < lanes; ++j) out[j] = taps_.sample(sum[j]);
    }
  }

  Taps taps_;
  bool inverse_;
  std::vector<T> scratch_;
};

}  // namespace dwt::dsp
