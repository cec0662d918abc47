#include "dsp/dwt53.hpp"

#include "dsp/lifting_ladder.hpp"

namespace dwt::dsp {

LiftSubbands53 lifting53_forward(std::span<const std::int64_t> x) {
  return lift_forward<LiftSubbands53>(reversible53_steps(), x,
                                      "lifting53_forward");
}

std::vector<std::int64_t> lifting53_inverse(std::span<const std::int64_t> low,
                                            std::span<const std::int64_t> high) {
  return lift_inverse(reversible53_steps(), low, high, "lifting53_inverse");
}

}  // namespace dwt::dsp
