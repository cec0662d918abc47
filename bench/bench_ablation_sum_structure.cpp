// Ablation: partial-product summation order.  The paper's figures 7/8 chain
// the adders sequentially; a balanced tree needs fewer pipeline stages in
// the pipelined designs at similar area, but its wider stages can lower
// their f_max.  Compares both schedules for designs 2-5 and closes with the
// measured latency and f_max change per design.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "explore/explorer.hpp"
#include "hw/designs.hpp"

int main(int argc, char** argv) {
  dwt::bench::JsonReporter json("bench_ablation_sum_structure", argc, argv);
  dwt::explore::Explorer explorer;
  std::printf("Ablation: sequential (paper) vs balanced-tree summation.\n\n");
  std::printf("%-10s %-12s %8s %12s %14s %9s\n", "Design", "structure", "LEs",
              "fmax (MHz)", "P@15MHz (mW)", "latency");
  struct Row {
    std::string design;
    double fmax;
    int latency;
  };
  std::vector<Row> rows;  // sequential then tree, per design
  for (const auto id :
       {dwt::hw::DesignId::kDesign2, dwt::hw::DesignId::kDesign3,
        dwt::hw::DesignId::kDesign4, dwt::hw::DesignId::kDesign5}) {
    for (const auto structure :
         {dwt::rtl::SumStructure::kSequential, dwt::rtl::SumStructure::kTree}) {
      dwt::hw::DesignSpec spec = dwt::hw::design_spec(id);
      spec.config.sum_structure = structure;
      const auto eval = explorer.evaluate(spec);
      const char* sname = structure == dwt::rtl::SumStructure::kSequential
                              ? "sequential"
                              : "tree";
      std::printf("%-10s %-12s %8zu %12.1f %14.1f %9d\n", spec.name.c_str(),
                  sname, eval.report.logic_elements, eval.report.fmax_mhz,
                  eval.report.power_mw, eval.info.latency);
      const std::string scenario = spec.name + " " + sname;
      json.add(scenario, "area", static_cast<double>(eval.report.logic_elements),
               "LEs");
      json.add(scenario, "fmax", eval.report.fmax_mhz, "MHz");
      json.add(scenario, "power_at_15mhz", eval.report.power_mw, "mW");
      json.add(scenario, "latency", eval.info.latency, "cycles");
      rows.push_back({spec.name, eval.report.fmax_mhz, eval.info.latency});
    }
  }
  std::printf("\nSequential -> tree, as measured above:\n");
  for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
    const Row& seq = rows[i];
    const Row& tree = rows[i + 1];
    std::printf("  %-10s latency %2d -> %2d cycles, fmax %6.1f -> %6.1f MHz "
                "(%+.1f%%)\n",
                seq.design.c_str(), seq.latency, tree.latency, seq.fmax,
                tree.fmax, 100.0 * (tree.fmax / seq.fmax - 1.0));
  }
  return json.exit_code();
}
