// The five DWT architectures evaluated in paper Table 3.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hw/lifting_datapath.hpp"
#include "rtl/harden.hpp"

namespace dwt::hw {

enum class DesignId {
  kDesign1,  ///< behavioral, generic integer multipliers, 8 stages
  kDesign2,  ///< behavioral, shifted integer adders, 8 stages
  kDesign3,  ///< behavioral, pipelined shifted integer adders, 21 stages
  kDesign4,  ///< structural, shifted integer adders, 8 stages
  kDesign5,  ///< structural, pipelined shifted integer adders, 21 stages
};

inline constexpr int kDesignCount = 5;

struct DesignSpec {
  DesignId id;
  std::string name;         ///< "Design 1" ... "Design 5"
  std::string description;  ///< paper section 3.x wording
  DatapathConfig config;
};

/// All five specs in paper order.
[[nodiscard]] std::vector<DesignSpec> all_designs();

[[nodiscard]] DesignSpec design_spec(DesignId id);

/// The adder-variant extension of the design space: every adder-sensitive
/// paper design (2..5 -- Design 1's area is dominated by its generic
/// multipliers) crossed with every parallel-prefix architecture.  Names
/// follow design_point_name(), e.g. "Design 3 (kogge-stone)".
[[nodiscard]] std::vector<DesignSpec> adder_variant_designs();

/// Display name of a (design, adder-override) point: the paper name alone
/// when no override is set, "Design N (arch)" otherwise.
[[nodiscard]] std::string design_point_name(
    DesignId id, std::optional<rtl::AdderArch> adder);

// Design-name parsing/printing -- the one string <-> DesignId seam shared by
// the CLIs, the benches and the registry (it used to be re-implemented ad
// hoc at every call site).

/// 1-based paper index ("Design 3" -> 3).
[[nodiscard]] int design_index(DesignId id);

/// Paper Table 3 display name ("Design 1" ... "Design 5").
[[nodiscard]] std::string design_name(DesignId id);

/// Parses any of the spellings the tools accept: "3", "design3", "design-3",
/// "design 3", "Design 3" (case-insensitive).  Returns nullopt for anything
/// else, including out-of-range indices.
[[nodiscard]] std::optional<DesignId> parse_design(std::string_view text);

/// Core configuration for a design driving an `max_octaves`-deep 2-D
/// recursion: beyond one octave the LL coefficients outgrow the paper's
/// signed 8-bit input range (they gain roughly 1.2 bits per octave), so the
/// controller provisions a wider core sized by interval analysis instead of
/// the paper's measured 8-bit-input ranges.  `adder` swaps the design's
/// adder architecture (the (design x adder) sweep axis); nullopt keeps the
/// paper's realization.  Inputs widen by 2 bits per octave and the datapath
/// takes at most 24, so `max_octaves` outside 1..9 throws
/// std::invalid_argument.
[[nodiscard]] DatapathConfig design_config(
    DesignId id, int max_octaves = 1,
    std::optional<rtl::AdderArch> adder = std::nullopt);

/// Elaborates the design's netlist.
[[nodiscard]] BuiltDatapath build_design(DesignId id);

/// Applies a hardening transform to an elaborated datapath and rebinds the
/// streaming ports.  TMR replaces registered output ports with combinational
/// voter nets; the zero-delay harness observes those one settle later than a
/// flip-flop output, so the reported stream latency grows by one cycle.
[[nodiscard]] BuiltDatapath harden_datapath(const BuiltDatapath& dp,
                                            rtl::HardeningStyle style,
                                            rtl::HardeningReport* report);

/// Paper Table 3 published values, for side-by-side reporting.
struct PaperTable3Row {
  std::string name;
  int area_les;
  double fmax_mhz;
  double power_mw_15mhz;
  int pipeline_stages;
};
[[nodiscard]] std::vector<PaperTable3Row> paper_table3();

}  // namespace dwt::hw
