#include "dsp/dwt97_lifting.hpp"

#include "dsp/lifting_ladder.hpp"

namespace dwt::dsp {

LiftSubbands lifting97_forward(std::span<const double> x,
                               const LiftingCoeffs& c) {
  return lift_forward<LiftSubbands>(float97_steps(c), x, "lifting97_forward");
}

std::vector<double> lifting97_inverse(std::span<const double> low,
                                      std::span<const double> high,
                                      const LiftingCoeffs& c) {
  return lift_inverse(float97_steps(c), low, high, "lifting97_inverse");
}

}  // namespace dwt::dsp
