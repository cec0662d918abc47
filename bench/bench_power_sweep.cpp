// Section 4's in-text power points: design 2 at 40 MHz (paper: 626 mW),
// design 3 at 128 MHz (808 mW), design 5 at 95 MHz (476 mW), and design 5 vs
// design 3 at the same frequency (paper: ~15% lower).
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_json.hpp"
#include "explore/explorer.hpp"

int main(int argc, char** argv) {
  dwt::bench::JsonReporter json("bench_power_sweep", argc, argv);
  dwt::explore::Explorer explorer;
  const auto device = dwt::fpga::ApexDeviceParams::apex20ke();
  const auto evals = explorer.evaluate_all();
  const auto& d2 = evals[1];
  const auto& d3 = evals[2];
  const auto& d5 = evals[4];

  struct Point {
    const char* label;
    const dwt::explore::DesignEvaluation* eval;
    double mhz;
    double paper_mw;
  };
  const Point points[] = {
      {"Design 2 @ 40 MHz", &d2, 40.0, 626.0},
      {"Design 3 @ 128 MHz", &d3, 128.0, 808.0},
      {"Design 5 @ 95 MHz", &d5, 95.0, 476.0},
  };
  std::printf("Section 4 power points (measured vs paper).\n\n");
  std::printf("%-22s %14s %12s\n", "Operating point", "power (mW)", "paper");
  for (const Point& p : points) {
    const double mw = p.eval->power_at(p.mhz, device).total_mw();
    std::printf("%-22s %14.1f %12.1f\n", p.label, mw, p.paper_mw);
    json.add(p.label, "power", mw, "mW");
    json.add(p.label, "paper_power", p.paper_mw, "mW");
  }

  std::printf("\nFrequency sweep (total mW):\n%-10s", "f (MHz)");
  for (const auto& e : evals) std::printf(" %10s", e.spec.name.c_str());
  std::printf("\n");
  for (const double f : {15.0, 25.0, 40.0, 60.0, 95.0, 128.0}) {
    std::printf("%-10.0f", f);
    for (const auto& e : evals) {
      const double mw = e.power_at(f, device).total_mw();
      std::printf(" %10.1f", mw);
      json.add(e.spec.name,
               "power_at_" + std::to_string(static_cast<int>(f)) + "mhz", mw,
               "mW");
    }
    std::printf("\n");
  }

  const double iso = d5.power_at(95.0, device).total_mw() /
                     d3.power_at(95.0, device).total_mw();
  std::printf(
      "\nDesign 5 vs design 3 at the same 95 MHz: %.0f%% %s (paper: 15%% "
      "less).\n",
      std::abs(1.0 - iso) * 100.0, iso < 1.0 ? "less" : "more");
  json.add("Design 5 vs 3 @ 95 MHz", "power_ratio", iso, "ratio");
  return json.exit_code();
}
