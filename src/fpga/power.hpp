// Activity-based dynamic power estimation.  Per-net switching activity
// (including glitches) comes from the transport-delay MappedActivitySim;
// each physical net charges its LE output + interconnect capacitance per
// transition:
//   P_logic = sum over nets of  rate * 1/2 * C * Vdd^2 * f
// plus the clock network (two edges per cycle per FF) and static power.
#pragma once

#include <string>

#include "fpga/device.hpp"
#include "fpga/mapped_sim.hpp"
#include "fpga/tech_mapper.hpp"
#include "fpga/timing.hpp"

namespace dwt::fpga {

struct PowerBreakdown {
  double logic_mw = 0.0;
  double clock_mw = 0.0;
  double static_mw = 0.0;
  double frequency_mhz = 0.0;

  [[nodiscard]] double total_mw() const {
    return logic_mw + clock_mw + static_mw;
  }
  [[nodiscard]] std::string to_string() const;
};

/// Estimates power at `f_mhz` given measured switching activity.
[[nodiscard]] PowerBreakdown estimate_power(const MappedNetlist& mapped,
                                            const ActivityStats& activity,
                                            const ApexDeviceParams& params,
                                            double f_mhz);

/// Average switching activity (transitions per cycle) over physical nets --
/// the headline glitch metric the pipelined designs improve.
[[nodiscard]] double mean_activity(const MappedNetlist& mapped,
                                   const ActivityStats& activity);

}  // namespace dwt::fpga
