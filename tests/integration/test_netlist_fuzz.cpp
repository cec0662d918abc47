// Randomized cross-validation of the hardware substrate: generate random
// netlists (gates, adders of every AdderArch, multipliers, registers), then
// require that the zero-delay simulator, the technology mapper + the
// transport-delay mapped-netlist simulator (the power model's activity
// source), and the simplify() rewrite all agree cycle by cycle.  This is the
// strongest guard against mapper or rewrite bugs: any truth-table, packing,
// liveness or folding error shows up as a divergence.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fpga/mapped_sim.hpp"
#include "fpga/tech_mapper.hpp"
#include "rtl/adders.hpp"
#include "rtl/multipliers.hpp"
#include "rtl/simplify.hpp"
#include "rtl/simulator.hpp"

namespace dwt {
namespace {

using rtl::AdderStyle;
using rtl::Builder;
using rtl::Bus;
using rtl::Netlist;
using rtl::Pipeliner;
using rtl::Word;

/// Builds a random feed-forward datapath over two input buses.
Netlist random_netlist(std::uint64_t seed, Bus& in_a, Bus& in_b, int* depth) {
  common::Rng rng(seed);
  Netlist nl;
  Builder b(nl);
  const bool pipelined = rng.uniform(0, 1) == 1;
  Pipeliner p(b, pipelined, static_cast<int>(rng.uniform(1, 3)));
  const int wa = static_cast<int>(rng.uniform(3, 8));
  const int wb = static_cast<int>(rng.uniform(3, 8));
  Word a = rtl::word_input(nl, "a", wa);
  Word bw = rtl::word_input(nl, "b", wb);
  in_a = a.bus;
  in_b = bw.bus;

  std::vector<Word> values{a, bw};
  const int ops = static_cast<int>(rng.uniform(3, 10));
  for (int i = 0; i < ops; ++i) {
    const Word& x = values[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(values.size()) - 1))];
    const Word& y = values[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(values.size()) - 1))];
    // Draw over the whole architecture family, so every generator (chain,
    // ripple, and the three prefix networks) feeds the mapper/simplify/
    // simulator agreement matrix.
    const AdderStyle style = static_cast<AdderStyle>(
        rng.uniform(0, rtl::kAdderArchCount - 1));
    const std::string name = "op" + std::to_string(i);
    Word out;
    switch (rng.uniform(0, 4)) {
      case 0:
        out = rtl::word_add(p, x, y, style, name);
        break;
      case 1:
        out = rtl::word_sub(p, x, y, style, name);
        break;
      case 2:
        out = rtl::word_shl(b, x, static_cast<int>(rng.uniform(0, 3)));
        break;
      case 3:
        out = rtl::word_asr(b, x, static_cast<int>(rng.uniform(0, 2)));
        break;
      default: {
        const std::int64_t c = rng.uniform(-200, 200);
        if (c == 0) {
          out = rtl::word_add(p, x, y, style, name);
        } else {
          out = rtl::shiftadd_multiply(
              p, x, rtl::make_shiftadd_plan(c, rtl::Recoding::kBinary), style,
              rng.uniform(0, 1) == 0 ? rtl::SumStructure::kSequential
                                     : rtl::SumStructure::kTree,
              name);
        }
        break;
      }
    }
    // Keep widths bounded so the random walk cannot explode.
    if (out.bus.width() > 20) {
      out.bus = b.resize(out.bus, 20);
      out.range = common::Interval::signed_bits(20);
    }
    values.push_back(out);
  }
  Word result = values.back();
  result = p.stage(result, "r_out");
  nl.bind_output("y", result.bus);
  nl.validate();
  *depth = result.depth;
  return nl;
}

class NetlistFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetlistFuzz, AllEnginesAgree) {
  Bus in_a, in_b;
  int depth = 0;
  const Netlist nl = random_netlist(GetParam(), in_a, in_b, &depth);
  const Netlist simplified = rtl::simplify(nl);
  const Bus sa = simplified.find_input_bus("a");
  const Bus sb = simplified.find_input_bus("b");
  const fpga::MappedNetlist mapped = fpga::map_to_apex(simplified);

  rtl::Simulator zero_delay(nl);
  rtl::Simulator zero_delay_simplified(simplified);
  fpga::MappedActivitySim mapped_sim(mapped);

  common::Rng rng(GetParam() * 31 + 7);
  const std::int64_t la = -(std::int64_t{1} << (in_a.width() - 1));
  const std::int64_t ha = (std::int64_t{1} << (in_a.width() - 1)) - 1;
  const std::int64_t lb = -(std::int64_t{1} << (in_b.width() - 1));
  const std::int64_t hb = (std::int64_t{1} << (in_b.width() - 1)) - 1;
  for (int cycle = 0; cycle < 24; ++cycle) {
    const std::int64_t va = rng.uniform(la, ha);
    const std::int64_t vb = rng.uniform(lb, hb);
    zero_delay.set_bus(in_a, va);
    zero_delay.set_bus(in_b, vb);
    zero_delay_simplified.set_bus(sa, va);
    zero_delay_simplified.set_bus(sb, vb);
    mapped_sim.set_bus(sa, va);
    mapped_sim.set_bus(sb, vb);
    zero_delay.step();
    zero_delay_simplified.step();
    mapped_sim.cycle();
    if (cycle < depth + 1) continue;  // pipeline warm-up
    const std::int64_t expected = zero_delay.read_bus(nl.output("y"));
    EXPECT_EQ(zero_delay_simplified.read_bus(simplified.output("y")), expected)
        << "simplify() diverged, cycle " << cycle;
    EXPECT_EQ(mapped_sim.read_bus(simplified.output("y")), expected)
        << "mapper diverged, cycle " << cycle;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetlistFuzz,
                         ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace dwt
