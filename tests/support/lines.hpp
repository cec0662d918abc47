// Test helpers for 1-D transforms.  A line kernel (a dsp::LiftingLadder or a
// dsp::FirBank) transforms a line in place, the forward leaving ceil(n/2)
// low then floor(n/2) high values; these helpers run one line through a
// kernel or through a method's one-row window of dsp::dwt2d_forward /
// dwt2d_inverse, and split or join the packed bands.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/dwt2d.hpp"

namespace dwt::test {

template <class T>
struct Bands {
  std::vector<T> low;
  std::vector<T> high;
};

/// x split into its ceil(n/2) low and floor(n/2) high values.
template <class T>
Bands<T> split(const std::vector<T>& x) {
  const auto mid = x.begin() + static_cast<std::ptrdiff_t>((x.size() + 1) / 2);
  return {{x.begin(), mid}, {mid, x.end()}};
}

/// The forward `kernel` over a copy of x, split into its bands.
template <class Kernel, class T>
Bands<T> forward_bands(Kernel&& kernel, std::vector<T> x) {
  kernel(x.data(), x.size());
  return split(x);
}

/// The inverse `kernel` over the low then the high band.
template <class Kernel, class T>
std::vector<T> inverse_line(Kernel&& kernel, const std::vector<T>& low,
                            const std::vector<T>& high) {
  std::vector<T> x = low;
  x.insert(x.end(), high.begin(), high.end());
  kernel(x.data(), x.size());
  return x;
}

/// The 1-D forward transform of method m: a one-row window.
inline Bands<double> forward_row(dsp::Method m, std::vector<double> x,
                                 int frac_bits = dsp::kDefaultFracBits) {
  dsp::dwt2d_forward(m, {x.data(), x.size(), x.size(), 1}, 1, frac_bits);
  return split(x);
}

/// The 1-D inverse transform of method m: a one-row window.
inline std::vector<double> inverse_row(dsp::Method m,
                                       const std::vector<double>& low,
                                       const std::vector<double>& high,
                                       int frac_bits = dsp::kDefaultFracBits) {
  std::vector<double> x = low;
  x.insert(x.end(), high.begin(), high.end());
  dsp::dwt2d_inverse(m, {x.data(), x.size(), x.size(), 1}, 1, frac_bits);
  return x;
}

}  // namespace dwt::test
