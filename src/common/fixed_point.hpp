// Fixed-point arithmetic support for the integer-rounded lifting coefficients
// (paper Table 1).  The paper represents each lifting constant as an integer
// ratio n/256 (8 fractional bits) stored in two's complement with 2 integer
// bits, e.g. alpha = -406/256 = "10.01101010".
#pragma once

#include <cstdint>
#include <string>

namespace dwt::common {

/// A signed fixed-point value with a compile-time-independent number of
/// fractional bits.  The paper's designs use frac_bits = 8 everywhere; the
/// class is generic so the word-length ablation can sweep it.
class Fixed {
 public:
  constexpr Fixed() = default;

  /// Constructs from a raw scaled integer (value = raw / 2^frac_bits).
  static constexpr Fixed from_raw(std::int64_t raw, int frac_bits) {
    return Fixed(raw, frac_bits);
  }

  /// The widest fraction from_double accepts (0..kMaxFracBits).
  static constexpr int kMaxFracBits = 60;

  /// Rounds a real value to the nearest representable fixed-point value
  /// (round half away from zero, matching the paper's rounded constants).
  static Fixed from_double(double value, int frac_bits);

  [[nodiscard]] constexpr std::int64_t raw() const { return raw_; }
  [[nodiscard]] constexpr int frac_bits() const { return frac_bits_; }
  [[nodiscard]] double to_double() const;

  /// Number of bits needed to store raw() in two's complement.
  [[nodiscard]] int min_signed_bits() const;

  /// Two's-complement rendering with a documentation decimal point, as used
  /// in Table 1: `int_bits` bits before the point, frac_bits() after.
  /// Example: alpha with int_bits=2 renders as "10.01101010".
  [[nodiscard]] std::string to_binary_string(int int_bits) const;

  friend constexpr bool operator==(const Fixed& a, const Fixed& b) = default;

 private:
  constexpr Fixed(std::int64_t raw, int frac_bits)
      : raw_(raw), frac_bits_(frac_bits) {}

  std::int64_t raw_ = 0;
  int frac_bits_ = 0;
};

/// Multiplies an integer sample by a fixed-point constant and truncates the
/// product back to an integer with an arithmetic right shift -- exactly the
/// datapath operation the paper's designs perform ("adjusted by 8-bit right
/// shift", section 3.2).
[[nodiscard]] constexpr std::int64_t mul_const_truncate(std::int64_t sample,
                                                      const Fixed& c) {
  // Arithmetic right shift: C++20 guarantees two's complement and defines
  // right shift of negative values as arithmetic.
  return (sample * c.raw()) >> c.frac_bits();
}

/// Number of bits required to represent all integers in [lo, hi] in two's
/// complement.
[[nodiscard]] int signed_bits_for_range(std::int64_t lo, std::int64_t hi);

}  // namespace dwt::common
