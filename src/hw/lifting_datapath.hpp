// Elaboration of the paper's lifting 1D-DWT datapath (figure 5) as a
// gate-level netlist, parameterized along the three axes the paper explores:
//   * multiplier style: generic integer array multipliers (design 1) vs
//     shift-add constant multipliers (designs 2-5);
//   * adder style: behavioral carry-chain adders (designs 1-3) vs structural
//     full-adder gate netlists (designs 4-5);
//   * operator pipelining: one sum per pipeline stage (designs 3, 5) vs
//     combinational operators inside the 8-stage skeleton (designs 1, 2, 4).
//
// Streaming semantics: each cycle consumes one even/odd sample pair
// (x[2n], x[2n+1]) and, `latency` cycles later, produces one low/high
// coefficient pair.  Boundary mirroring is the memory controller's job
// (paper figure 4), so the core itself is boundary-free.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "common/interval.hpp"
#include "dsp/lifting_coeffs.hpp"
#include "rtl/adders.hpp"
#include "rtl/shiftadd_plan.hpp"

namespace dwt::hw {

enum class MultiplierStyle {
  kGenericArray,  ///< behavioral integer megacore multipliers (design 1)
  kShiftAdd,      ///< shifted-adder constant multipliers (designs 2-5)
};

struct DatapathConfig {
  MultiplierStyle multiplier = MultiplierStyle::kShiftAdd;
  rtl::AdderStyle adder_style = rtl::AdderStyle::kCarryChain;
  bool pipelined_operators = false;
  /// Register every Nth sum when pipelining (1 = paper's designs 3/5; the
  /// pipeline-depth ablation sweeps this).
  int pipeline_granularity = 1;
  int input_bits = 8;  ///< signed sample width (paper: signed 8-bit)
  int frac_bits = 8;   ///< coefficient fractional bits (paper: 8)
  rtl::Recoding recoding = rtl::Recoding::kBinaryWithReuse;
  /// Partial-product accumulation order (paper figure 7: sequential).
  rtl::SumStructure sum_structure = rtl::SumStructure::kSequential;
  /// Size internal registers to the measured ranges of paper section 3.1
  /// (true) or to conservative interval-analysis bounds (false; ablation).
  bool paper_widths = true;

  /// Member-wise, so every field -- one added later included -- tells two
  /// configurations apart (core::ArtifactCache keys on it).
  friend auto operator<=>(const DatapathConfig&,
                          const DatapathConfig&) = default;
};

/// Value range of each named pipeline register group (paper section 3.1).
struct StageRange {
  std::string name;
  common::Interval range;
  int bits;
};

struct DatapathInfo {
  int latency = 0;  ///< cycles from sample pair in to coefficient pair out
  std::vector<StageRange> stage_ranges;
};

struct BuiltDatapath {
  rtl::Netlist netlist;
  rtl::Bus in_even;
  rtl::Bus in_odd;
  rtl::Bus out_low;
  rtl::Bus out_high;
  DatapathInfo info;
  DatapathConfig config;
};

/// Elaborates the datapath.  Output ports are bound as "low" and "high".
[[nodiscard]] BuiltDatapath build_lifting_datapath(const DatapathConfig& cfg);

/// The measured register ranges published in paper section 3.1, used for
/// register sizing when DatapathConfig::paper_widths is set.
[[nodiscard]] std::vector<StageRange> paper_section31_ranges();

}  // namespace dwt::hw
