#include "rtl/compiled/wide_simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "rtl/builder.hpp"
#include "rtl/compiled/tape.hpp"

namespace dwt::rtl::compiled {
namespace {

constexpr unsigned kLanes = WideSimulator<1>::kTotalLanes;

/// The one-word lane block whose bit L is `word`'s bit L.
LaneBlock<1> blk(std::uint64_t word) { return LaneBlock<1>{{word}}; }

TEST(CompiledTape, AssignsEveryNetASlot) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId x = nl.add_cell(CellKind::kXor2, a, b);
  const NetId q = nl.add_cell(CellKind::kDff, x);
  const auto tape = compile(nl);
  EXPECT_EQ(tape->net_count(), nl.net_count());
  EXPECT_EQ(tape->slot_count(), nl.net_count());
  EXPECT_TRUE(tape->is_primary_input(a));
  EXPECT_TRUE(tape->is_primary_input(b));
  EXPECT_FALSE(tape->is_primary_input(x));
  EXPECT_TRUE(tape->is_dff_output(q));
  EXPECT_FALSE(tape->is_dff_output(x));
  EXPECT_EQ(tape->instrs().size(), 1u);  // the XOR; DFF is not an instr
  EXPECT_EQ(tape->dffs().size(), 1u);
  EXPECT_EQ(tape->net_of(tape->slot_of(x)), x);
  EXPECT_GE(tape->depth(), 1u);
}

TEST(CompiledSim, GateTruthTablesAllLanes) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId s = nl.add_input("s");
  const NetId n_not = nl.add_cell(CellKind::kNot, a);
  const NetId n_and = nl.add_cell(CellKind::kAnd2, a, b);
  const NetId n_or = nl.add_cell(CellKind::kOr2, a, b);
  const NetId n_xor = nl.add_cell(CellKind::kXor2, a, b);
  const NetId n_mux = nl.add_cell(CellKind::kMux2, a, b, s);
  const NetId n_sum = nl.add_cell(CellKind::kAddSum, a, b, s);
  const NetId n_carry = nl.add_cell(CellKind::kAddCarry, a, b, s);
  WideSimulator<1> sim(nl);
  const std::uint64_t va = 0xDEADBEEFCAFEF00Dull;
  const std::uint64_t vb = 0x0123456789ABCDEFull;
  const std::uint64_t vs = 0xF0F0F0F0F0F0F0F0ull;
  sim.set_input_block(a, blk(va));
  sim.set_input_block(b, blk(vb));
  sim.set_input_block(s, blk(vs));
  sim.eval();
  EXPECT_EQ(sim.block(n_not).w[0], ~va);
  EXPECT_EQ(sim.block(n_and).w[0], va & vb);
  EXPECT_EQ(sim.block(n_or).w[0], va | vb);
  EXPECT_EQ(sim.block(n_xor).w[0], va ^ vb);
  EXPECT_EQ(sim.block(n_mux).w[0], (vs & vb) | (~vs & va));
  EXPECT_EQ(sim.block(n_sum).w[0], va ^ vb ^ vs);
  EXPECT_EQ(sim.block(n_carry).w[0], (va & vb) | (vs & (va ^ vb)));
}

TEST(CompiledSim, Const1DrivesAllLanes) {
  Netlist nl;
  const NetId one = nl.add_cell(CellKind::kConst1);
  const NetId inv = nl.add_cell(CellKind::kNot, one);
  WideSimulator<1> sim(nl);
  sim.eval();
  EXPECT_EQ(sim.block(one).w[0], ~std::uint64_t{0});
  EXPECT_EQ(sim.block(inv).w[0], 0u);
  sim.reset();  // constants survive reset
  sim.eval();
  EXPECT_EQ(sim.block(one).w[0], ~std::uint64_t{0});
}

TEST(CompiledSim, DffSamplesOnClockEdgePerLane) {
  Netlist nl;
  const NetId d = nl.add_input("d");
  const NetId q = nl.add_cell(CellKind::kDff, d);
  WideSimulator<1> sim(nl);
  const std::uint64_t pattern = 0xAAAA5555AAAA5555ull;
  sim.set_input_block(d, blk(pattern));
  sim.eval();
  EXPECT_EQ(sim.block(q).w[0], 0u);  // not clocked yet
  sim.clock_edge();
  EXPECT_EQ(sim.block(q).w[0], pattern);
  EXPECT_EQ(sim.cycles(), 0u);  // only step() advances the cycle count
  sim.set_input_block(d, blk(~pattern));
  sim.step();
  EXPECT_EQ(sim.block(q).w[0], ~pattern);
  EXPECT_EQ(sim.cycles(), 1u);
}

TEST(CompiledSim, BusLaneIoRoundTrips) {
  Netlist nl;
  Builder b(nl);
  const Bus in = nl.add_input_bus("a", 8);
  const Bus reg = b.reg(in, "r");
  nl.bind_output("y", reg);
  WideSimulator<1> sim(nl);
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    sim.set_bus(in, lane, static_cast<std::int64_t>(lane) - 32);
  }
  sim.step();
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(sim.read_bus(reg, lane), static_cast<std::int64_t>(lane) - 32);
  }
  sim.set_bus_all(in, -128);
  sim.step();
  EXPECT_EQ(sim.read_bus(reg, 0), -128);
  EXPECT_EQ(sim.read_bus(reg, 63), -128);
  EXPECT_THROW(sim.set_bus(in, 0, 128), std::invalid_argument);   // overflow
  EXPECT_THROW(sim.set_bus(in, kLanes, 0), std::invalid_argument);
}

TEST(CompiledSim, ForcePinsOnlySelectedLanes) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId inv = nl.add_cell(CellKind::kNot, a);
  WideSimulator<1> sim(nl);
  sim.set_input_block(a, blk(0));
  // Pin lane 0 of the NOT's output low and lane 1 high.
  sim.force(inv, blk(0b11u), blk(0b10u));
  sim.eval();
  EXPECT_FALSE(sim.value(inv, 0));
  EXPECT_TRUE(sim.value(inv, 1));
  EXPECT_TRUE(sim.value(inv, 2));  // unpinned lanes evaluate normally
  sim.release(inv, blk(0b11u));
  sim.eval();
  EXPECT_TRUE(sim.value(inv, 0));
  EXPECT_TRUE(sim.value(inv, 1));
}

TEST(CompiledSim, ForcedInputPropagatesThroughCloud) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId n_and = nl.add_cell(CellKind::kAnd2, a, b);
  WideSimulator<1> sim(nl);
  sim.set_input_block(a, blk(0));
  sim.set_input_block(b, blk(~std::uint64_t{0}));
  sim.force(a, blk(1u), blk(1u));  // stuck-at-1 on lane 0 of a source net
  sim.eval();
  EXPECT_TRUE(sim.value(n_and, 0));
  EXPECT_FALSE(sim.value(n_and, 1));
}

TEST(CompiledSim, FlipStateStrikesDffLanes) {
  Netlist nl;
  const NetId d = nl.add_input("d");
  const NetId q = nl.add_cell(CellKind::kDff, d);
  const NetId comb = nl.add_cell(CellKind::kNot, d);
  WideSimulator<1> sim(nl);
  sim.set_input_block(d, blk(0));
  sim.step();
  sim.flip_state(q, blk(0b101u));
  EXPECT_TRUE(sim.value(q, 0));
  EXPECT_FALSE(sim.value(q, 1));
  EXPECT_TRUE(sim.value(q, 2));
  EXPECT_THROW(sim.flip_state(comb, blk(1u)), std::invalid_argument);
}

TEST(CompiledSim, SharedTapeAcrossSimulators) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId x = nl.add_cell(CellKind::kXor2, a, b);
  const auto tape = compile(nl);
  WideSimulator<1> s1(tape), s2(tape);
  s1.set_input_block(a, blk(0xFFull));
  s1.set_input_block(b, blk(0x0Full));
  s2.set_input_block(a, blk(0x01ull));
  s2.set_input_block(b, blk(0x01ull));
  s1.eval();
  s2.eval();
  EXPECT_EQ(s1.block(x).w[0], 0xF0ull);
  EXPECT_EQ(s2.block(x).w[0], 0u);  // independent state, shared tape
}

}  // namespace
}  // namespace dwt::rtl::compiled
