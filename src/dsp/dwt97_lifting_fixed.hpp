// Bit-true integer model of the paper's lifting datapath (sections 3.1-3.2):
// every lifting step multiplies by an integer-rounded constant and truncates
// with an arithmetic right shift.  The trace records every stage: it is the
// bit-width analysis model, the golden reference the five gate-level designs
// are verified against bit for bit, and the independent reference the shared
// lifting ladder (dsp/lifting_ladder.hpp) is tested against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/lifting_coeffs.hpp"

namespace dwt::dsp {

/// Intermediate per-sample values of the datapath, used to cross-check the
/// hardware pipeline registers and to measure the actual value ranges of
/// paper section 3.1.
struct LiftingTrace {
  std::vector<std::int64_t> s0, d0;  ///< input even / odd phases
  std::vector<std::int64_t> d1;      ///< after alpha predict
  std::vector<std::int64_t> s1;      ///< after beta update
  std::vector<std::int64_t> d2;      ///< after gamma predict
  std::vector<std::int64_t> s2;      ///< after delta update
  std::vector<std::int64_t> low;     ///< s2 * (1/k) >> f
  std::vector<std::int64_t> high;    ///< d2 * (-k) >> f
};

/// The forward transform of x (N >= 1; std::invalid_argument when empty),
/// recording every intermediate stage.
[[nodiscard]] LiftingTrace lifting97_forward_fixed_trace(
    std::span<const std::int64_t> x, const LiftingFixedCoeffs& c);

/// The elementary datapath operation: target + ((coeff.raw * (a+b)) >> f).
/// Exposed so the hardware model and the software model provably share one
/// definition of the rounding behaviour.
[[nodiscard]] std::int64_t lift_step(std::int64_t target, std::int64_t a,
                                     std::int64_t b, const common::Fixed& coeff);

/// The output scaling operation: (value * coeff.raw) >> f.
[[nodiscard]] std::int64_t scale_step(std::int64_t value,
                                      const common::Fixed& coeff);

}  // namespace dwt::dsp
