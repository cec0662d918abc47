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

double psnr(const Plane<std::int32_t>& a, const Plane<std::int32_t>& b,
            double peak) {
  if (a.width() != b.width() || a.height() != b.height() || a.empty()) {
    throw std::invalid_argument("psnr: plane dimension mismatch or empty");
  }
  // Unsigned: an int32 difference squared fits 64 bits, and pixel planes
  // (|e| <= 255) keep the sum exact far beyond the 65535 x 65535 cap.
  std::uint64_t sse = 0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    const std::int64_t e = std::int64_t{a.data()[i]} - b.data()[i];
    const auto m = static_cast<std::uint64_t>(e < 0 ? -e : e);
    sse += m * m;
  }
  if (sse == 0) return std::numeric_limits<double>::infinity();
  const double e =
      static_cast<double>(sse) / static_cast<double>(a.data().size());
  return 10.0 * std::log10(peak * peak / e);
}

}  // namespace dwt::dsp
