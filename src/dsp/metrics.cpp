#include "dsp/metrics.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace dwt::dsp {

double mse(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("mse: size mismatch or empty input");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double e = a[i] - b[i];
    acc += e * e;
  }
  return acc / static_cast<double>(a.size());
}

double mse(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    throw std::invalid_argument("mse: image dimension mismatch");
  }
  return mse(std::span<const double>(a.data()),
             std::span<const double>(b.data()));
}

double psnr(std::span<const double> a, std::span<const double> b, double peak) {
  const double e = mse(a, b);
  if (e == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(peak * peak / e);
}

double psnr(const Image& a, const Image& b, double peak) {
  const double e = mse(a, b);
  if (e == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(peak * peak / e);
}

double psnr(PlaneView<const std::uint8_t> a, PlaneView<const std::uint8_t> b,
            double peak) {
  if (a.width != b.width || a.height != b.height || a.width == 0 ||
      a.height == 0) {
    throw std::invalid_argument("psnr: pixel plane shape mismatch or empty");
  }
  // A difference of two bytes squared is below 2^16, so the sum stays exact
  // far beyond the 65535 x 65535 cap.
  std::uint64_t sse = 0;
  for (std::size_t y = 0; y < a.height; ++y) {
    for (std::size_t x = 0; x < a.width; ++x) {
      const int e = int{a.row(y)[x]} - int{b.row(y)[x]};
      sse += static_cast<std::uint64_t>(e * e);
    }
  }
  if (sse == 0) return std::numeric_limits<double>::infinity();
  const double e = static_cast<double>(sse) /
                   static_cast<double>(a.width * a.height);
  return 10.0 * std::log10(peak * peak / e);
}

}  // namespace dwt::dsp
