#include "fpga/power.hpp"

#include <sstream>
#include <stdexcept>

namespace dwt::fpga {
namespace {

double net_capacitance_pf(const MappedNetlist& m, const ApexDeviceParams& p,
                          rtl::NetId net, bool is_carry) {
  if (is_carry) return p.c_carry_pf;
  return p.c_le_output_pf +
         p.c_route_per_fanout_pf * static_cast<double>(m.fanout[net]);
}

}  // namespace

PowerBreakdown estimate_power(const MappedNetlist& mapped,
                              const ActivityStats& activity,
                              const ApexDeviceParams& params, double f_mhz) {
  if (activity.cycles == 0) {
    throw std::invalid_argument("estimate_power: no simulated cycles");
  }
  if (f_mhz <= 0) throw std::invalid_argument("estimate_power: bad frequency");
  PowerBreakdown pb;
  pb.frequency_mhz = f_mhz;
  pb.static_mw = params.static_mw;
  const double v2 = params.v_dd * params.v_dd;
  // mW = rate[1/cycle] * 0.5 * C[pF] * V^2 * f[MHz] * 1e-3
  const double scale = 0.5 * v2 * f_mhz * 1e-3;
  // Deep combinational clouds route over longer wires: weight each net's
  // capacitance by its timing arrival (see c_arrival_slope_per_ns).
  TimingAnalyzer sta(mapped, params);
  auto depth_weight = [&](rtl::NetId net) {
    return 1.0 + params.c_arrival_slope_per_ns * sta.arrival(net);
  };
  double logic = 0.0;
  for (const LogicElement& le : mapped.les) {
    if (le.lut_output != rtl::kNullNet) {
      // A packed FF keeps its LUT's output inside the LE: the wire charges
      // only the tiny intra-cell capacitance, independent of cloud depth.
      if (le.has_ff) {
        logic += activity.rate(le.lut_output) * params.c_packed_internal_pf;
      } else {
        logic += activity.rate(le.lut_output) * depth_weight(le.lut_output) *
                 net_capacitance_pf(mapped, params, le.lut_output, false);
      }
    }
    if (le.carry_out != rtl::kNullNet) {
      logic += activity.rate(le.carry_out) * depth_weight(le.carry_out) *
               net_capacitance_pf(mapped, params, le.carry_out, true);
    }
    if (le.ff_output != rtl::kNullNet && le.ff_output != le.lut_output) {
      logic += activity.rate(le.ff_output) *
               net_capacitance_pf(mapped, params, le.ff_output, false);
    }
  }
  pb.logic_mw = logic * scale;
  // Clock network: two edges per cycle per FF.
  const double ffs = static_cast<double>(mapped.ff_count());
  pb.clock_mw = ffs * params.c_clock_per_ff_pf * v2 * f_mhz * 1e-3;
  return pb;
}

double mean_activity(const MappedNetlist& mapped,
                     const ActivityStats& activity) {
  double total = 0.0;
  std::size_t nets = 0;
  for (const LogicElement& le : mapped.les) {
    if (le.lut_output != rtl::kNullNet) {
      total += activity.rate(le.lut_output);
      ++nets;
    }
    if (le.carry_out != rtl::kNullNet) {
      total += activity.rate(le.carry_out);
      ++nets;
    }
  }
  return nets == 0 ? 0.0 : total / static_cast<double>(nets);
}

std::string PowerBreakdown::to_string() const {
  std::ostringstream os;
  os << total_mw() << " mW @ " << frequency_mhz << " MHz (logic " << logic_mw
     << ", clock " << clock_mw << ", static " << static_mw << ")";
  return os.str();
}

}  // namespace dwt::fpga
