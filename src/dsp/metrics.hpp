// Error metrics (paper figure 6): mean squared error and peak
// signal-to-noise ratio between an original and a reconstructed image.
#pragma once

#include <cstdint>
#include <span>

#include "dsp/image.hpp"

namespace dwt::dsp {

[[nodiscard]] double mse(std::span<const double> a, std::span<const double> b);
[[nodiscard]] double mse(const Image& a, const Image& b);

/// PSNR in dB with peak S (paper: PSNR = -10 log10(MSE / S^2), S = 255 for
/// 8-bit imagery).  Returns +infinity for identical inputs.
[[nodiscard]] double psnr(std::span<const double> a, std::span<const double> b,
                          double peak = 255.0);
[[nodiscard]] double psnr(const Image& a, const Image& b, double peak = 255.0);

/// PSNR of two same-shaped 8-bit pixel planes from their exact integer
/// squared-error sum.
[[nodiscard]] double psnr(PlaneView<const std::uint8_t> a,
                          PlaneView<const std::uint8_t> b, double peak = 255.0);

}  // namespace dwt::dsp
