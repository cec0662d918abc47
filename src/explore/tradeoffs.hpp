// Quantitative checks of the paper's concluding claims (section 5): the
// area/power/frequency ratios between pipelined and non-pipelined operator
// designs and between behavioral and structural descriptions.
#pragma once

#include <string>
#include <vector>

#include "explore/explorer.hpp"

namespace dwt::explore {

struct RatioClaim {
  std::string description;
  double paper_value = 0.0;     ///< ratio the paper reports (approximate)
  double measured_value = 0.0;  ///< ratio from our model
};

struct TradeoffAnalysis {
  // Pipelining (design 3 vs 2, design 5 vs 4):
  double pipelined_area_ratio_behavioral = 0.0;   // paper ~1.6
  double pipelined_area_ratio_structural = 0.0;   // paper ~1.4
  double pipelined_fmax_ratio_behavioral = 0.0;   // paper ~3.6
  double pipelined_fmax_ratio_structural = 0.0;   // paper ~1.9
  double pipelined_power_ratio_behavioral = 0.0;  // paper ~0.42 (105/248)
  double pipelined_power_ratio_structural = 0.0;  // paper ~0.39 (91.4/232)
  // Description style (design 4 vs 2, design 5 vs 3):
  double structural_area_ratio_flat = 0.0;        // paper ~1.46 (701/480)
  double structural_area_ratio_pipelined = 0.0;   // paper ~1.31 (1002/766)
  double structural_fmax_ratio_pipelined = 0.0;   // paper ~0.67 (105/157)

  [[nodiscard]] std::vector<RatioClaim> claims() const;
};

/// Computes the analysis from the five design evaluations (paper order).
[[nodiscard]] TradeoffAnalysis analyze_tradeoffs(
    const std::vector<DesignEvaluation>& evals);

/// Same ratios computed from the paper's own Table 3 numbers.
[[nodiscard]] TradeoffAnalysis paper_tradeoffs();

}  // namespace dwt::explore
