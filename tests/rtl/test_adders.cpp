#include "rtl/adders.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "rtl/simulator.hpp"
#include "rtl/stats.hpp"

namespace dwt::rtl {
namespace {

Word input_word(Netlist& nl, const std::string& name, int bits) {
  return word_input(nl, name, bits);
}

struct SumCase {
  SumStructure structure;
  AdderStyle style;
  bool pipelined;
};

class SumSignedTest : public ::testing::TestWithParam<SumCase> {};

TEST_P(SumSignedTest, ComputesSignedSums) {
  const SumCase cfg = GetParam();
  Netlist nl;
  Builder b(nl);
  Pipeliner p(b, cfg.pipelined);
  const Word x = input_word(nl, "x", 6);
  const Word y = input_word(nl, "y", 6);
  const Word z = input_word(nl, "z", 6);
  // x + y - z + y
  std::vector<SignedTerm> terms{{x, false}, {y, false}, {z, true}, {y, false}};
  const Word s = sum_signed(p, std::move(terms), cfg.structure, cfg.style, "s");
  nl.bind_output("s", s.bus);
  Simulator sim(nl);
  common::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const std::int64_t vx = rng.uniform(-32, 31);
    const std::int64_t vy = rng.uniform(-32, 31);
    const std::int64_t vz = rng.uniform(-32, 31);
    sim.set_bus(x.bus, vx);
    sim.set_bus(y.bus, vy);
    sim.set_bus(z.bus, vz);
    // Flush the pipeline (if any) so outputs settle.
    for (int k = 0; k <= s.depth; ++k) sim.step();
    EXPECT_EQ(sim.read_bus(s.bus), vx + 2 * vy - vz);
  }
}

// gtest (and the ctest names discovered from it) label each case with a dump
// of the SumCase bytes, padding included. Cases built as stack temporaries
// left that padding uninitialised, so the names changed from run to run; a
// static table keeps the padding zero and the names stable.
constexpr SumCase kSumCases[] = {
    {SumStructure::kSequential, AdderStyle::kCarryChain, false},
    {SumStructure::kSequential, AdderStyle::kRippleGates, false},
    {SumStructure::kTree, AdderStyle::kCarryChain, false},
    {SumStructure::kTree, AdderStyle::kRippleGates, false},
    {SumStructure::kSequential, AdderStyle::kCarryChain, true},
    {SumStructure::kTree, AdderStyle::kCarryChain, true}};

INSTANTIATE_TEST_SUITE_P(Configs, SumSignedTest, ::testing::ValuesIn(kSumCases));

TEST(SumTree, DepthIsLogarithmicWhenPipelined) {
  Netlist nl;
  Builder b(nl);
  Pipeliner p(b, /*enabled=*/true);
  std::vector<Word> terms;
  for (int i = 0; i < 8; ++i) {
    terms.push_back(input_word(nl, "t" + std::to_string(i), 4));
  }
  const Word s = sum_tree(p, std::move(terms), AdderStyle::kCarryChain, "s");
  EXPECT_EQ(s.depth, 3);  // ceil(log2 8)
}

TEST(SumChain, DepthIsLinearWhenPipelined) {
  Netlist nl;
  Builder b(nl);
  Pipeliner p(b, /*enabled=*/true);
  std::vector<Word> terms;
  for (int i = 0; i < 8; ++i) {
    terms.push_back(input_word(nl, "t" + std::to_string(i), 4));
  }
  const Word s = sum_chain(p, std::move(terms), AdderStyle::kCarryChain, "s");
  EXPECT_EQ(s.depth, 7);
}

TEST(SumSigned, AllNegativeTermsHandled) {
  Netlist nl;
  Builder b(nl);
  Pipeliner p(b, false);
  const Word x = input_word(nl, "x", 5);
  std::vector<SignedTerm> terms{{x, true}, {x, true}};
  const Word s = sum_signed(p, std::move(terms), SumStructure::kSequential,
                            AdderStyle::kCarryChain, "s");
  nl.bind_output("s", s.bus);
  Simulator sim(nl);
  sim.set_bus(x.bus, 9);
  sim.eval();
  EXPECT_EQ(sim.read_bus(s.bus), -18);
}

TEST(SumSigned, RejectsEmpty) {
  Netlist nl;
  Builder b(nl);
  Pipeliner p(b, false);
  EXPECT_THROW(sum_signed(p, {}, SumStructure::kSequential,
                          AdderStyle::kCarryChain, "s"),
               std::invalid_argument);
}

TEST(WordOps, RangesTrackHardware) {
  Netlist nl;
  Builder b(nl);
  Pipeliner p(b, false);
  const Word x = input_word(nl, "x", 8);
  const Word y = input_word(nl, "y", 8);
  const Word s = word_add(p, x, y, AdderStyle::kCarryChain, "s");
  EXPECT_EQ(s.range.lo, -256);
  EXPECT_EQ(s.range.hi, 254);
  EXPECT_EQ(s.bus.width(), 9);
  const Word d = word_sub(p, x, y, AdderStyle::kCarryChain, "d");
  EXPECT_EQ(d.range.lo, -255);
  EXPECT_EQ(d.range.hi, 255);
  const Word sh = word_shl(b, x, 2);
  EXPECT_EQ(sh.range.lo, -512);
  const Word sr = word_asr(b, x, 3);
  EXPECT_EQ(sr.range.lo, -16);
  EXPECT_EQ(sr.range.hi, 15);
}

TEST(Pipeliner, AlignInsertsShims) {
  Netlist nl;
  Builder b(nl);
  Pipeliner p(b, true);
  Word x = input_word(nl, "x", 4);
  Word y = p.stage(p.stage(input_word(nl, "y", 4), "r1"), "r2");
  p.align(x, y, "al");
  EXPECT_EQ(x.depth, 2);
  EXPECT_EQ(y.depth, 2);
  EXPECT_EQ(nl.count_kind(CellKind::kDff), 2u * 4u + 2u * 4u);
}

TEST(Pipeliner, SharedDelaysReuseRegisters) {
  Netlist nl;
  Builder b(nl);
  Pipeliner p(b, true);
  const Word x = input_word(nl, "x", 4);
  const Word a = p.align_to(x, 2, "a");
  const std::size_t after_first = nl.count_kind(CellKind::kDff);
  const Word bb = p.align_to(x, 2, "b");
  EXPECT_EQ(nl.count_kind(CellKind::kDff), after_first);  // fully shared
  EXPECT_EQ(a.bus.bits, bb.bus.bits);
}

TEST(Pipeliner, CutOnlyWhenEnabled) {
  Netlist nl;
  Builder b(nl);
  Pipeliner off(b, false);
  const Word x = input_word(nl, "x", 4);
  EXPECT_EQ(off.cut(x, "c").depth, 0);
  Pipeliner on(b, true);
  EXPECT_EQ(on.cut(x, "c").depth, 1);
}

TEST(Pipeliner, AlignToRejectsPastTargets) {
  Netlist nl;
  Builder b(nl);
  Pipeliner p(b, true);
  const Word x = p.stage(input_word(nl, "x", 4), "r");
  EXPECT_THROW(p.align_to(x, 0, "bad"), std::logic_error);
}

}  // namespace
}  // namespace dwt::rtl
