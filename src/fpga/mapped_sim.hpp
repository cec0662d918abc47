// Event-driven *transport-delay* simulator over the mapped netlist, used
// for power estimation.  Each LE output transition is scheduled with the
// same delays the static timing analyzer uses (carry hops fast, LUT+local
// routing moderate, general interconnect slow).  Skewed arrival times are
// what multiply glitch transitions inside long operator cascades -- the
// physical mechanism behind the paper's observation that the pipelined
// designs 3 and 5 need less than half the power at the same clock: one
// registered operator per stage leaves glitches no room to compound.
// Toggle counts are indexed by source-netlist net id, so
// fpga::estimate_power consumes them directly.
#pragma once

#include <cstdint>
#include <vector>

#include "fpga/device.hpp"
#include "fpga/tech_mapper.hpp"
#include "rtl/netlist.hpp"

namespace dwt::fpga {

/// Transition counts from a MappedActivitySim run, indexed by source-netlist
/// net id -- the input of fpga::estimate_power.
struct ActivityStats {
  std::uint64_t cycles = 0;
  std::vector<std::uint64_t> toggles;  ///< per net, summed over all cycles
  std::uint64_t total_toggles = 0;

  /// Mean transitions per cycle on net `n`.
  [[nodiscard]] double rate(rtl::NetId n) const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(toggles[n]) /
                             static_cast<double>(cycles);
  }
};

class MappedActivitySim {
 public:
  explicit MappedActivitySim(
      const MappedNetlist& mapped,
      const ApexDeviceParams& params = ApexDeviceParams::apex20ke());

  /// Schedules input values for the next cycle() boundary.
  void set_input(rtl::NetId net, bool value);
  void set_bus(const rtl::Bus& bus, std::int64_t value);

  /// One clock cycle: FFs capture, inputs apply, the logic settles under
  /// transport delays while transitions on physical nets are counted.
  void cycle();

  [[nodiscard]] bool value(rtl::NetId net) const { return values_[net] != 0; }
  [[nodiscard]] std::int64_t read_bus(const rtl::Bus& bus) const;

  [[nodiscard]] const ActivityStats& stats() const { return stats_; }
  void reset_stats();

 private:
  enum class Out : std::uint8_t { kLut, kCarry };
  struct Load {
    std::int32_t le;
    std::uint16_t lut_delay;    ///< ticks until the LUT output reacts
    std::uint16_t carry_delay;  ///< ticks until the carry output reacts (0 = none)
  };
  struct Event {
    std::int32_t le;
    Out out;
  };

  void bump(rtl::NetId net, bool new_value, std::uint64_t tick);
  void schedule(std::int32_t le, Out out, std::uint64_t tick);
  [[nodiscard]] bool eval_out(const LogicElement& le, Out out) const;

  const MappedNetlist& m_;
  std::vector<std::uint8_t> values_;  ///< per source net
  std::vector<std::pair<rtl::NetId, std::uint8_t>> pending_inputs_;
  std::vector<std::vector<Load>> loads_;  ///< net -> consuming LEs with delays

  // Timing wheel (circular buckets, 1 tick = 0.05 ns).
  static constexpr std::size_t kWheelSize = 1024;
  std::vector<std::vector<Event>> wheel_;
  std::uint64_t now_ = 0;
  std::size_t pending_events_ = 0;

  ActivityStats stats_;
};

}  // namespace dwt::fpga
