// The computation methods of paper Table 2: FIR filter bank or lifting
// scheme, each with floating-point or integer-rounded coefficients, plus the
// reversible 5/3.  dsp/dwt2d is the one place a Method is dispatched; a 1-D
// transform is a one-row window of dwt2d_forward/dwt2d_inverse, and callers
// with their own coefficient tables run a line kernel (dsp/lifting_ladder,
// dsp/fir_filter) directly.
#pragma once

#include <string>

namespace dwt::dsp {

enum class Method {
  kFirFloat,       ///< 9/7 FIR filter bank, floating-point coefficients
  kFirFixed,       ///< 9/7 FIR filter bank, integer-rounded coefficients
  kLiftingFloat,   ///< lifting scheme, floating-point factorized coefficients
  kLiftingFixed,   ///< lifting scheme, integer-rounded factorized coefficients
  // Hardware-style variants: integer registers at every stage but ideal
  // (full-precision) multiplier constants -- the "floating point" rows of
  // paper Table 2, whose datapath still stores integers.
  kFirHwFloat,
  kLiftingHwFloat,
  /// JPEG2000 reversible 5/3 (Le Gall) lifting transform: integer to
  /// integer, lossless (extension beyond the paper's 9/7 scope; its
  /// reference [6] combines both wavelets in one architecture).
  kReversible53,
};

[[nodiscard]] std::string to_string(Method m);

/// True for the methods whose outputs are integers: they lift int32 planes
/// (dwt2d's int32 entry points), the two float methods lift doubles.
[[nodiscard]] constexpr bool is_fixed(Method m) {
  return m == Method::kFirFixed || m == Method::kLiftingFixed ||
         m == Method::kFirHwFloat || m == Method::kLiftingHwFloat ||
         m == Method::kReversible53;
}

/// Fractional bits used by the fixed methods (the paper's 8).
inline constexpr int kDefaultFracBits = 8;

}  // namespace dwt::dsp
