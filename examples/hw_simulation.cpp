// Gate-level hardware flow: elaborate design 3, verify it bit-for-bit
// against the software model on an image stream, dump a waveform (VCD) of
// the output ports, and export synthesizable structural Verilog -- the
// ASIC-portability endpoint the paper argues structural descriptions serve.
//
//   ./hw_simulation [design-number 1..5]
//
// Exits 1 when the bit-true check counts a mismatch.
#include <cmath>
#include <cstdio>
#include <fstream>

#include "dsp/dwt97_lifting_fixed.hpp"
#include "dsp/image_gen.hpp"
#include "hw/designs.hpp"
#include "hw/stream_runner.hpp"
#include "rtl/simulator.hpp"
#include "rtl/stats.hpp"
#include "rtl/vcd.hpp"
#include "rtl/verilog_writer.hpp"

int main(int argc, char** argv) {
  using namespace dwt;
  const int design_number = argc > 1 ? std::atoi(argv[1]) : 3;
  if (design_number < 1 || design_number > 5) {
    std::fprintf(stderr, "usage: %s [design 1..5]\n", argv[0]);
    return 1;
  }
  const auto id = static_cast<hw::DesignId>(design_number - 1);
  const hw::DesignSpec spec = hw::design_spec(id);
  std::printf("Elaborating %s: %s\n", spec.name.c_str(),
              spec.description.c_str());

  const hw::BuiltDatapath dp = hw::build_design(id);
  std::printf("  netlist: %s\n",
              rtl::compute_stats(dp.netlist).to_string().c_str());
  std::printf("  latency: %d cycles, one (even, odd) sample pair per cycle\n",
              dp.info.latency);

  // Stream one image row through the core and compare against the bit-true
  // software model.
  const dsp::Image img = dsp::make_still_tone_image(256, 1, 11);
  std::vector<std::int64_t> samples;
  for (const double v : img.data()) {
    samples.push_back(static_cast<std::int64_t>(std::llround(v)) - 128);
  }
  rtl::Simulator sim(dp.netlist);
  const hw::StreamResult hwres = hw::run_stream(dp, sim, samples);
  const dsp::LiftingTrace swres = dsp::lifting97_forward_fixed_trace(
      samples, dsp::LiftingFixedCoeffs::rounded(8));
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < swres.low.size(); ++i) {
    if (hwres.low[i] != swres.low[i] || hwres.high[i] != swres.high[i]) {
      ++mismatches;
    }
  }
  std::printf("  bit-true check vs software model: %zu mismatches over %zu "
              "coefficient pairs (%llu cycles)\n",
              mismatches, swres.low.size(),
              static_cast<unsigned long long>(hwres.cycles));

  // Waveform of the output ports (open with GTKWave).
  {
    rtl::Simulator wave_sim(dp.netlist);
    std::vector<rtl::NetId> traced = dp.out_low.bits;
    traced.insert(traced.end(), dp.out_high.bits.begin(),
                  dp.out_high.bits.end());
    rtl::VcdWriter vcd(dp.netlist, traced, "hw_simulation.vcd");
    for (std::size_t t = 0; t < 64; ++t) {
      wave_sim.set_bus(dp.in_even, samples[2 * t]);
      wave_sim.set_bus(dp.in_odd, samples[2 * t + 1]);
      wave_sim.step();
      vcd.sample(wave_sim, t * 10);
    }
  }
  std::printf("  wrote hw_simulation.vcd (64 cycles of the output ports)\n");

  // Structural Verilog export.
  {
    std::ofstream v("dwt_core.v");
    rtl::write_verilog(dp.netlist, "dwt_lifting_core", v);
  }
  std::printf("  wrote dwt_core.v (synthesizable structural Verilog)\n");
  return mismatches == 0 ? 0 : 1;
}
