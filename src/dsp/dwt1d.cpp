#include "dsp/dwt1d.hpp"

#include <stdexcept>

namespace dwt::dsp {

std::string to_string(Method m) {
  switch (m) {
    case Method::kFirFloat: return "FIR filter, floating point 9/7 coefficients";
    case Method::kFirFixed: return "FIR filter, integer rounded 9/7 coefficients";
    case Method::kLiftingFloat: return "Lifting scheme, floating point coefficients";
    case Method::kLiftingFixed: return "Lifting scheme, integer rounded coefficients";
    case Method::kFirHwFloat:
      return "FIR filter, floating point coefficients (integer datapath)";
    case Method::kLiftingHwFloat:
      return "Lifting scheme, floating point coefficients (integer datapath)";
    case Method::kReversible53: return "Reversible 5/3 (Le Gall) lifting";
  }
  throw std::invalid_argument("to_string: unknown Method");
}

}  // namespace dwt::dsp
