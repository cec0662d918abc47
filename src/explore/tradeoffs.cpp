#include "explore/tradeoffs.hpp"

#include <stdexcept>

namespace dwt::explore {
namespace {

struct Metrics {
  double les;
  double fmax;
  double power;
};

TradeoffAnalysis analyze(const std::vector<Metrics>& m) {
  if (m.size() != 5) {
    throw std::invalid_argument("analyze_tradeoffs: need the five designs");
  }
  TradeoffAnalysis a;
  const Metrics &d1 [[maybe_unused]] = m[0], &d2 = m[1], &d3 = m[2],
                &d4 = m[3], &d5 = m[4];
  a.pipelined_area_ratio_behavioral = d3.les / d2.les;
  a.pipelined_area_ratio_structural = d5.les / d4.les;
  a.pipelined_fmax_ratio_behavioral = d3.fmax / d2.fmax;
  a.pipelined_fmax_ratio_structural = d5.fmax / d4.fmax;
  a.pipelined_power_ratio_behavioral = d3.power / d2.power;
  a.pipelined_power_ratio_structural = d5.power / d4.power;
  a.structural_area_ratio_flat = d4.les / d2.les;
  a.structural_area_ratio_pipelined = d5.les / d3.les;
  a.structural_fmax_ratio_pipelined = d5.fmax / d3.fmax;
  return a;
}

}  // namespace

TradeoffAnalysis analyze_tradeoffs(const std::vector<DesignEvaluation>& evals) {
  std::vector<Metrics> m;
  m.reserve(evals.size());
  for (const DesignEvaluation& e : evals) {
    m.push_back({static_cast<double>(e.report.logic_elements),
                 e.report.fmax_mhz, e.report.power_mw});
  }
  return analyze(m);
}

TradeoffAnalysis paper_tradeoffs() {
  std::vector<Metrics> m;
  for (const hw::PaperTable3Row& r : hw::paper_table3()) {
    m.push_back({static_cast<double>(r.area_les), r.fmax_mhz,
                 r.power_mw_15mhz});
  }
  return analyze(m);
}

std::vector<RatioClaim> TradeoffAnalysis::claims() const {
  const TradeoffAnalysis p = paper_tradeoffs();
  return {
      {"pipelining area cost (behavioral, D3/D2)",
       p.pipelined_area_ratio_behavioral, pipelined_area_ratio_behavioral},
      {"pipelining area cost (structural, D5/D4)",
       p.pipelined_area_ratio_structural, pipelined_area_ratio_structural},
      {"pipelining fmax gain (behavioral, D3/D2)",
       p.pipelined_fmax_ratio_behavioral, pipelined_fmax_ratio_behavioral},
      {"pipelining fmax gain (structural, D5/D4)",
       p.pipelined_fmax_ratio_structural, pipelined_fmax_ratio_structural},
      {"pipelining power ratio (behavioral, D3/D2)",
       p.pipelined_power_ratio_behavioral, pipelined_power_ratio_behavioral},
      {"pipelining power ratio (structural, D5/D4)",
       p.pipelined_power_ratio_structural, pipelined_power_ratio_structural},
      {"structural area overhead (D4/D2)", p.structural_area_ratio_flat,
       structural_area_ratio_flat},
      {"structural area overhead (pipelined, D5/D3)",
       p.structural_area_ratio_pipelined, structural_area_ratio_pipelined},
      {"structural fmax ratio (pipelined, D5/D3)",
       p.structural_fmax_ratio_pipelined, structural_fmax_ratio_pipelined},
  };
}

}  // namespace dwt::explore
