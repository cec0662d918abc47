// Design-space exploration driver -- the paper's methodology as an API.
// For each architecture it elaborates the netlist, runs synthesis-style
// cleanup, maps to APEX logic elements, analyzes timing on the APEX 20KE,
// streams rows of a synthetic still-tone image through the transport-delay
// mapped simulator to measure switching activity (glitches included), and
// estimates power at the Table-3 reference frequency of 15 MHz.
#pragma once

#include <memory>
#include <vector>

#include "fpga/power.hpp"
#include "fpga/report.hpp"
#include "fpga/tech_mapper.hpp"
#include "fpga/timing.hpp"
#include "hw/designs.hpp"
#include "rtl/stats.hpp"

namespace dwt::explore {

struct DesignEvaluation {
  hw::DesignSpec spec;
  std::shared_ptr<const rtl::Netlist> netlist;  ///< simplified netlist
  fpga::MappedNetlist mapped;                   ///< source == netlist.get()
  fpga::ActivityStats activity;
  rtl::NetlistStats netlist_stats;
  fpga::TimingReport timing;
  fpga::SynthesisReport report;
  hw::DatapathInfo info;

  /// Power projected to another operating frequency (same activity).
  [[nodiscard]] fpga::PowerBreakdown power_at(
      double f_mhz, const fpga::ApexDeviceParams& device) const;
};

class Explorer {
 public:
  /// Full evaluation of one architecture.
  [[nodiscard]] DesignEvaluation evaluate(const hw::DesignSpec& spec) const;

  /// Evaluates the paper's five designs in order.
  [[nodiscard]] std::vector<DesignEvaluation> evaluate_all() const;

  /// Evaluates the adder-variant design points (hw::adder_variant_designs():
  /// designs 2..5 crossed with the parallel-prefix architectures) -- the
  /// (design x adder) rows of the extended Pareto sweep.
  [[nodiscard]] std::vector<DesignEvaluation> evaluate_adder_variants() const;

  /// The sample stream used for activity measurement: 2048 samples of a
  /// 128-wide still-tone image (paper: a Lena tile), seed 2005.
  [[nodiscard]] std::vector<std::int64_t> workload_stream() const;
};

}  // namespace dwt::explore
