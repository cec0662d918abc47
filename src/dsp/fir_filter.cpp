#include "dsp/fir_filter.hpp"

#include <stdexcept>

#include "common/fixed_point.hpp"

namespace dwt::dsp {

const Dwt97FirCoeffs& Dwt97FirCoeffs::daubechies97() {
  static const Dwt97FirCoeffs c{
      // 9-tap analysis low-pass h (paper fig. 2: h4..h0..h4).
      .analysis_low = {0.026748757410810, -0.016864118442875,
                       -0.078223266528990, 0.266864118442875,
                       0.602949018236360, 0.266864118442875,
                       -0.078223266528990, -0.016864118442875,
                       0.026748757410810},
      // 7-tap analysis high-pass g (paper fig. 2: g3..g0..g3).
      .analysis_high = {0.091271763114250, -0.057543526228500,
                        -0.591271763114250, 1.115087052457000,
                        -0.591271763114250, -0.057543526228500,
                        0.091271763114250},
      // Synthesis filters from the biorthogonal relation
      // gl(n) = (-1)^n * g~(n), gh(n) = (-1)^n * h~(n).
      .synthesis_low = {-0.091271763114250, -0.057543526228500,
                        0.591271763114250, 1.115087052457000,
                        0.591271763114250, -0.057543526228500,
                        -0.091271763114250},
      .synthesis_high = {0.026748757410810, 0.016864118442875,
                         -0.078223266528990, -0.266864118442875,
                         0.602949018236360, -0.266864118442875,
                         -0.078223266528990, 0.016864118442875,
                         0.026748757410810},
  };
  return c;
}

Dwt97FirFixedCoeffs Dwt97FirFixedCoeffs::rounded(int frac_bits) {
  const Dwt97FirCoeffs& c = Dwt97FirCoeffs::daubechies97();
  const auto raw = [frac_bits](double v) {
    return common::Fixed::from_double(v, frac_bits).raw();
  };
  Dwt97FirFixedCoeffs f{};
  f.frac_bits = frac_bits;
  std::ranges::transform(c.analysis_low, f.analysis_low.begin(), raw);
  std::ranges::transform(c.analysis_high, f.analysis_high.begin(), raw);
  std::ranges::transform(c.synthesis_low, f.synthesis_low.begin(), raw);
  std::ranges::transform(c.synthesis_high, f.synthesis_high.begin(), raw);
  return f;
}

std::size_t mirror_index(std::ptrdiff_t pos, std::size_t n) {
  if (n == 0) throw std::invalid_argument("mirror_index: empty signal");
  if (n == 1) return 0;
  const std::ptrdiff_t period = 2 * (static_cast<std::ptrdiff_t>(n) - 1);
  std::ptrdiff_t p = pos % period;
  if (p < 0) p += period;
  if (p >= static_cast<std::ptrdiff_t>(n)) p = period - p;
  return static_cast<std::size_t>(p);
}

}  // namespace dwt::dsp
