#include "fpga/power.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fpga/mapped_sim.hpp"
#include "rtl/builder.hpp"

namespace dwt::fpga {
namespace {

using rtl::AdderStyle;
using rtl::Builder;
using rtl::Bus;
using rtl::Netlist;

struct Harness {
  Netlist nl;
  Bus in;
  Bus out;
  MappedNetlist mapped;

  explicit Harness(int cascade) {
    Builder b(nl);
    in = nl.add_input_bus("a", 8);
    Bus acc = b.add(in, in, AdderStyle::kCarryChain, 9, "s0");
    for (int i = 1; i < cascade; ++i) {
      acc = b.add(acc, in, AdderStyle::kCarryChain, acc.width() + 1,
                  "s" + std::to_string(i));
    }
    out = b.reg(acc, "r");
    nl.bind_output("y", out);
    mapped = map_to_apex(nl);
  }

  ActivityStats run(std::uint64_t seed, int cycles) {
    MappedActivitySim sim(mapped);
    common::Rng rng(seed);
    for (int t = 0; t < cycles; ++t) {
      sim.set_bus(in, rng.uniform(-128, 127));
      sim.cycle();
    }
    return sim.stats();
  }
};

TEST(Power, ScalesLinearlyWithFrequency) {
  Harness h(2);
  const auto stats = h.run(1, 200);
  const auto& p = ApexDeviceParams::apex20ke();
  const PowerBreakdown at15 = estimate_power(h.mapped, stats, p, 15.0);
  const PowerBreakdown at30 = estimate_power(h.mapped, stats, p, 30.0);
  EXPECT_NEAR(at30.logic_mw, 2.0 * at15.logic_mw, 1e-9);
  EXPECT_NEAR(at30.clock_mw, 2.0 * at15.clock_mw, 1e-9);
  EXPECT_DOUBLE_EQ(at30.static_mw, at15.static_mw);
}

TEST(Power, MoreActivityMeansMorePower) {
  Harness h(2);
  const auto quiet = [&] {
    MappedActivitySim sim(h.mapped);
    for (int t = 0; t < 200; ++t) {
      sim.set_bus(h.in, 1);  // constant input: nearly no switching
      sim.cycle();
    }
    return sim.stats();
  }();
  const auto busy = h.run(2, 200);
  const auto& p = ApexDeviceParams::apex20ke();
  EXPECT_GT(estimate_power(h.mapped, busy, p, 15.0).logic_mw,
            estimate_power(h.mapped, quiet, p, 15.0).logic_mw);
}

TEST(Power, DeepCascadeBurnsMoreThanShallow) {
  Harness shallow(1), deep(5);
  const auto ss = shallow.run(3, 300);
  const auto ds = deep.run(3, 300);
  const auto& p = ApexDeviceParams::apex20ke();
  EXPECT_GT(estimate_power(deep.mapped, ds, p, 15.0).logic_mw,
            estimate_power(shallow.mapped, ss, p, 15.0).logic_mw);
}

TEST(Power, BreakdownSumsToTotal) {
  Harness h(2);
  const auto stats = h.run(4, 100);
  const auto& p = ApexDeviceParams::apex20ke();
  const PowerBreakdown pb = estimate_power(h.mapped, stats, p, 15.0);
  EXPECT_NEAR(pb.total_mw(), pb.logic_mw + pb.clock_mw + pb.static_mw, 1e-12);
  EXPECT_GT(pb.logic_mw, 0.0);
  EXPECT_GT(pb.clock_mw, 0.0);
  EXPECT_EQ(pb.static_mw, p.static_mw);
}

TEST(Power, RejectsDegenerateInputs) {
  Harness h(1);
  const auto stats = h.run(5, 10);
  const auto& p = ApexDeviceParams::apex20ke();
  EXPECT_THROW((void)estimate_power(h.mapped, ActivityStats{}, p, 15.0),
               std::invalid_argument);
  EXPECT_THROW((void)estimate_power(h.mapped, stats, p, 0.0), std::invalid_argument);
}

TEST(Power, MeanActivityPositiveUnderStimulus) {
  Harness h(2);
  const auto stats = h.run(6, 200);
  EXPECT_GT(mean_activity(h.mapped, stats), 0.05);
}

TEST(Power, ToStringMentionsUnits) {
  Harness h(1);
  const auto stats = h.run(7, 50);
  const auto& p = ApexDeviceParams::apex20ke();
  const std::string s = estimate_power(h.mapped, stats, p, 15.0).to_string();
  EXPECT_NE(s.find("mW"), std::string::npos);
  EXPECT_NE(s.find("MHz"), std::string::npos);
}

}  // namespace
}  // namespace dwt::fpga
