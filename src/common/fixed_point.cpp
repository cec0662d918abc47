#include "common/fixed_point.hpp"

#include <cmath>
#include <stdexcept>

namespace dwt::common {

Fixed Fixed::from_double(double value, int frac_bits) {
  if (frac_bits < 0 || frac_bits > kMaxFracBits) {
    throw std::invalid_argument("Fixed::from_double: frac_bits out of range");
  }
  const double scaled = value * static_cast<double>(std::int64_t{1} << frac_bits);
  const double rounded = scaled >= 0 ? std::floor(scaled + 0.5) : std::ceil(scaled - 0.5);
  return Fixed(static_cast<std::int64_t>(rounded), frac_bits);
}

double Fixed::to_double() const {
  return static_cast<double>(raw_) /
         static_cast<double>(std::int64_t{1} << frac_bits_);
}

int Fixed::min_signed_bits() const {
  return signed_bits_for_range(raw_, raw_);
}

std::string Fixed::to_binary_string(int int_bits) const {
  const int total = int_bits + frac_bits_;
  if (total <= 0 || total > 62) {
    throw std::invalid_argument("Fixed::to_binary_string: width out of range");
  }
  const std::uint64_t mask = (std::uint64_t{1} << total) - 1;
  const std::uint64_t word = static_cast<std::uint64_t>(raw_) & mask;
  std::string out;
  out.reserve(static_cast<std::size_t>(total) + 1);
  for (int i = total - 1; i >= 0; --i) {
    out.push_back(((word >> i) & 1) != 0 ? '1' : '0');
    if (i == frac_bits_) out.push_back('.');
  }
  return out;
}

int signed_bits_for_range(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("signed_bits_for_range: lo > hi");
  int bits = 1;
  while (true) {
    // A signed `bits`-bit word covers [-2^(bits-1), 2^(bits-1) - 1].
    const std::int64_t min_v = -(std::int64_t{1} << (bits - 1));
    const std::int64_t max_v = (std::int64_t{1} << (bits - 1)) - 1;
    if (lo >= min_v && hi <= max_v) return bits;
    ++bits;
    if (bits > 62) throw std::overflow_error("signed_bits_for_range: > 62 bits");
  }
}

}  // namespace dwt::common
