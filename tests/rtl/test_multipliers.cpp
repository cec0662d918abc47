#include "rtl/multipliers.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "rtl/simulator.hpp"

namespace dwt::rtl {
namespace {

struct MultCase {
  std::int64_t constant;
  AdderStyle style;
  SumStructure structure;
  bool pipelined;
};

class ShiftAddMultiplierTest : public ::testing::TestWithParam<MultCase> {};

TEST_P(ShiftAddMultiplierTest, ExactProduct) {
  const MultCase cfg = GetParam();
  Netlist nl;
  Builder b(nl);
  Pipeliner p(b, cfg.pipelined);
  const Word x = word_input(nl, "x", 9);
  const ShiftAddPlan plan =
      make_shiftadd_plan(cfg.constant, Recoding::kBinaryWithReuse);
  const Word y = shiftadd_multiply(p, x, plan, cfg.style, cfg.structure, "m");
  nl.bind_output("y", y.bus);
  nl.validate();
  Simulator sim(nl);
  common::Rng rng(17);
  for (int i = 0; i < 60; ++i) {
    const std::int64_t vx = rng.uniform(-256, 255);
    sim.set_bus(x.bus, vx);
    for (int k = 0; k <= y.depth; ++k) sim.step();
    EXPECT_EQ(sim.read_bus(y.bus), cfg.constant * vx)
        << "c=" << cfg.constant << " x=" << vx;
  }
}

// gtest names each case by dumping the MultCase bytes, padding included; a
// static table keeps that padding zero, so the discovered ctest names are
// the same on every run (stack temporaries left it uninitialised).
constexpr MultCase kMultCases[] = {
    {-406, AdderStyle::kCarryChain, SumStructure::kSequential, false},
    {-14, AdderStyle::kCarryChain, SumStructure::kSequential, false},
    {226, AdderStyle::kCarryChain, SumStructure::kSequential, false},
    {114, AdderStyle::kRippleGates, SumStructure::kSequential, false},
    {-315, AdderStyle::kRippleGates, SumStructure::kSequential, false},
    {208, AdderStyle::kCarryChain, SumStructure::kTree, false},
    {-406, AdderStyle::kCarryChain, SumStructure::kSequential, true},
    {-14, AdderStyle::kCarryChain, SumStructure::kSequential, true},
    {-315, AdderStyle::kRippleGates, SumStructure::kSequential, true},
    {226, AdderStyle::kCarryChain, SumStructure::kTree, true}};

INSTANTIATE_TEST_SUITE_P(PaperConstants, ShiftAddMultiplierTest,
                         ::testing::ValuesIn(kMultCases));

TEST(ShiftAddMultiplier, RangeCoversProduct) {
  Netlist nl;
  Builder b(nl);
  Pipeliner p(b, false);
  const Word x = word_input(nl, "x", 8);
  const ShiftAddPlan plan = make_shiftadd_plan(-406, Recoding::kBinary);
  const Word y = shiftadd_multiply(p, x, plan, AdderStyle::kCarryChain,
                                   SumStructure::kSequential, "m");
  EXPECT_TRUE(y.range.contains(-406 * 127));
  EXPECT_TRUE(y.range.contains(-406 * -128));
}

class ArrayMultiplierTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ArrayMultiplierTest, ConstTimesDataExact) {
  Netlist nl;
  Builder b(nl);
  Pipeliner p(b, false);
  const Word x = word_input(nl, "x", 9);
  const Word y = array_multiply_const(p, x, GetParam(), 10,
                                      AdderStyle::kCarryChain,
                                      SumStructure::kSequential, "m");
  nl.bind_output("y", y.bus);
  nl.validate();
  Simulator sim(nl);
  common::Rng rng(23);
  for (int i = 0; i < 60; ++i) {
    const std::int64_t vx = rng.uniform(-256, 255);
    sim.set_bus(x.bus, vx);
    sim.eval();
    EXPECT_EQ(sim.read_bus(y.bus), GetParam() * vx) << vx;
  }
}

INSTANTIATE_TEST_SUITE_P(Constants, ArrayMultiplierTest,
                         ::testing::Values<std::int64_t>(-406, -14, 226, 114,
                                                         -315, 208, -512, 511));

TEST(ArrayMultiplier, GenericSignedExhaustiveSmall) {
  Netlist nl;
  Builder b(nl);
  Pipeliner p(b, false);
  const Word x = word_input(nl, "x", 4);
  const Word y = word_input(nl, "y", 4);
  const Word prod = array_multiply(p, x, y, AdderStyle::kCarryChain,
                                   SumStructure::kSequential, "m");
  nl.bind_output("p", prod.bus);
  Simulator sim(nl);
  for (std::int64_t vx = -8; vx <= 7; ++vx) {
    for (std::int64_t vy = -8; vy <= 7; ++vy) {
      sim.set_bus(x.bus, vx);
      sim.set_bus(y.bus, vy);
      sim.eval();
      EXPECT_EQ(sim.read_bus(prod.bus), vx * vy) << vx << "*" << vy;
    }
  }
}

TEST(ArrayMultiplier, GenericSignedRandomWide) {
  Netlist nl;
  Builder b(nl);
  Pipeliner p(b, false);
  const Word x = word_input(nl, "x", 10);
  const Word y = word_input(nl, "y", 9);
  const Word prod = array_multiply(p, x, y, AdderStyle::kRippleGates,
                                   SumStructure::kSequential, "m");
  nl.bind_output("p", prod.bus);
  Simulator sim(nl);
  common::Rng rng(29);
  for (int i = 0; i < 150; ++i) {
    const std::int64_t vx = rng.uniform(-512, 511);
    const std::int64_t vy = rng.uniform(-256, 255);
    sim.set_bus(x.bus, vx);
    sim.set_bus(y.bus, vy);
    sim.eval();
    EXPECT_EQ(sim.read_bus(prod.bus), vx * vy) << vx << "*" << vy;
  }
}

TEST(ArrayMultiplier, RejectsBadConstant) {
  Netlist nl;
  Builder b(nl);
  Pipeliner p(b, false);
  const Word x = word_input(nl, "x", 8);
  EXPECT_THROW(array_multiply_const(p, x, 600, 10, AdderStyle::kCarryChain,
                                    SumStructure::kSequential, "m"),
               std::invalid_argument);
  EXPECT_THROW(array_multiply_const(p, x, 1, 1, AdderStyle::kCarryChain,
                                    SumStructure::kSequential, "m"),
               std::invalid_argument);
}

TEST(ArrayMultiplier, LargerThanShiftAdd) {
  // The megacore structure is why design 1 outweighs design 2.
  Netlist a, s;
  {
    Builder b(a);
    Pipeliner p(b, false);
    const Word x = word_input(a, "x", 9);
    const Word y = array_multiply_const(p, x, -406, 10, AdderStyle::kCarryChain,
                                        SumStructure::kSequential, "m");
    a.bind_output("y", y.bus);
  }
  {
    Builder b(s);
    Pipeliner p(b, false);
    const Word x = word_input(s, "x", 9);
    const Word y = shiftadd_multiply(
        p, x, make_shiftadd_plan(-406, Recoding::kBinaryWithReuse),
        AdderStyle::kCarryChain, SumStructure::kSequential, "m");
    s.bind_output("y", y.bus);
  }
  EXPECT_GT(a.cell_count(), s.cell_count());
}

}  // namespace
}  // namespace dwt::rtl
