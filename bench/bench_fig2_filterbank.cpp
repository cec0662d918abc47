// Figure 2: the direct-form 9/7 FIR filter-bank architecture.  Reports the
// operator inventory (16 multipliers / 16 adders / 8 delay registers in the
// paper's schematic) and the synthesized cost of our elaboration of it.
#include <cstdio>

#include "bench_json.hpp"
#include "dsp/fir_filter.hpp"
#include "fpga/device.hpp"
#include "fpga/tech_mapper.hpp"
#include "fpga/timing.hpp"
#include "hw/filterbank_core.hpp"
#include "rtl/simplify.hpp"
#include "rtl/stats.hpp"

int main(int argc, char** argv) {
  dwt::bench::JsonReporter json("bench_fig2_filterbank", argc, argv);
  const auto cost = dwt::dsp::fir97_architecture_cost();
  std::printf("Figure 2. DWT by 9/7 taps Daubechies FIR filter.\n\n");
  std::printf("Schematic operator inventory (paper): %d multipliers, %d "
              "adders, %d delay registers.\n\n",
              cost.multipliers, cost.adders, cost.delay_registers);

  struct Variant {
    const char* label;
    dwt::hw::FilterBankConfig cfg;
  };
  Variant variants[3];
  variants[0].label = "unfolded (figure 2), behavioral";
  variants[1].label = "unfolded, pipelined operators";
  variants[1].cfg.pipelined_operators = true;
  variants[2].label = "symmetry-folded (9 multipliers)";
  variants[2].cfg.exploit_symmetry = true;

  std::printf("%-36s %12s %8s %12s %8s\n", "Variant", "multipliers", "LEs",
              "fmax (MHz)", "latency");
  for (const Variant& v : variants) {
    const dwt::hw::BuiltFilterBank fb = dwt::hw::build_filterbank_core(v.cfg);
    const dwt::rtl::Netlist opt = dwt::rtl::simplify(fb.netlist);
    const auto mapped = dwt::fpga::map_to_apex(opt);
    dwt::fpga::TimingAnalyzer sta(mapped,
                                  dwt::fpga::ApexDeviceParams::apex20ke());
    const auto timing = sta.analyze();
    std::printf("%-36s %12d %8zu %12.1f %8d\n", v.label, fb.multiplier_blocks,
                mapped.le_count(), timing.fmax_mhz, fb.latency);
    json.add(v.label, "multipliers", fb.multiplier_blocks, "count");
    json.add(v.label, "area", static_cast<double>(mapped.le_count()), "LEs");
    json.add(v.label, "fmax", timing.fmax_mhz, "MHz");
    json.add(v.label, "latency", fb.latency, "cycles");
  }
  std::printf(
      "\nNote: one sample/cycle enters the filter bank (one output pair per\n"
      "two cycles after decimation), whereas the lifting cores of figure 5\n"
      "consume an even/odd *pair* per cycle.\n");
  return json.exit_code();
}
