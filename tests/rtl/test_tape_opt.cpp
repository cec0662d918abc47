// Golden per-pass checks for the tape optimizer (rtl/compiled/opt) on
// hand-built netlists with known fold/DCE/fusion structure, plus the
// fault-overlay-safety contract: kSafe tapes keep force/flip semantics
// exact, kFull tapes are refused by the batch fault session.
#include "rtl/compiled/opt/passes.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "rtl/compiled/batch_fault.hpp"
#include "rtl/compiled/wide_simulator.hpp"
#include "rtl/fault.hpp"
#include "rtl/netlist.hpp"
#include "rtl/simulator.hpp"

namespace dwt::rtl::compiled {
namespace {

/// a AND const0 -> 0, a OR const1 -> 1, a XOR a -> 0 are all fault-safe
/// folds (results insensitive to forcing `a`); copies (x XOR const0 -> x)
/// and AND over a *folded* constant need full-mode propagation.  n4 = a^0
/// may NOT be aliased (its target is a primary input, which moves outside
/// eval()); n6 = m^0 aliases onto the NOT's output slot.
Netlist fold_fixture(NetId* a_out = nullptr) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId z = nl.add_cell(CellKind::kConst0);
  const NetId o = nl.add_cell(CellKind::kConst1);
  const NetId n1 = nl.add_cell(CellKind::kAnd2, a, z);
  const NetId n2 = nl.add_cell(CellKind::kOr2, a, o);
  const NetId n3 = nl.add_cell(CellKind::kXor2, a, a);
  const NetId n4 = nl.add_cell(CellKind::kXor2, a, z);
  const NetId n5 = nl.add_cell(CellKind::kAnd2, n1, a);
  const NetId m = nl.add_cell(CellKind::kNot, a);
  const NetId n6 = nl.add_cell(CellKind::kXor2, m, z);
  nl.bind_output("y1", Bus{{n1}});
  nl.bind_output("y2", Bus{{n2}});
  nl.bind_output("y3", Bus{{n3}});
  nl.bind_output("y4", Bus{{n4}});
  nl.bind_output("y5", Bus{{n5}});
  nl.bind_output("y6", Bus{{n6}});
  if (a_out != nullptr) *a_out = a;
  return nl;
}

TEST(TapeOpt, SafeFoldAbsorbsImmuneConstants) {
  const Netlist nl = fold_fixture();
  const auto raw = compile(nl);
  OptStats st;
  const auto folded = opt::fold_constants(*raw, /*fault_safe=*/true, &st);
  EXPECT_EQ(raw->instrs().size(), 7u);
  EXPECT_EQ(st.folded, 3u);   // a&0, a|1, a^a
  EXPECT_EQ(st.aliased, 0u);  // copies are not fault-safe
  EXPECT_EQ(folded->instrs().size(), 4u);  // a^0, n1&a, m, m^0 survive
  EXPECT_EQ(folded->level(), OptLevel::kSafe);
  EXPECT_TRUE(folded->fault_overlay_safe());
  // Every net is still materialized and observable.
  for (NetId n = 0; n < nl.net_count(); ++n) {
    EXPECT_TRUE(folded->materialized(n));
  }
}

TEST(TapeOpt, FullFoldPropagatesAndAliases) {
  const Netlist nl = fold_fixture();
  const auto raw = compile(nl);
  OptStats st;
  const auto folded = opt::fold_constants(*raw, /*fault_safe=*/false, &st);
  EXPECT_EQ(st.folded, 4u);   // + n5 = folded0 & a
  EXPECT_EQ(st.aliased, 1u);  // m^0 -> m (a^0 refused: PI target)
  EXPECT_EQ(folded->instrs().size(), 2u);  // a^0 kept, m kept
  EXPECT_EQ(folded->level(), OptLevel::kFull);
  EXPECT_FALSE(folded->fault_overlay_safe());
}

TEST(TapeOpt, FoldedValuesAreBitExact) {
  NetId a = kNullNet;
  const Netlist nl = fold_fixture(&a);
  for (const bool safe : {true, false}) {
    const auto folded = opt::fold_constants(*compile(nl), safe);
    WideSimulator<1> ref(compile(nl));
    WideSimulator<1> sim(folded);
    const std::uint64_t stim = 0xDEADBEEFCAFEF00Dull;
    ref.set_input_block(a, LaneBlock<1>{{stim}});
    sim.set_input_block(a, LaneBlock<1>{{stim}});
    ref.eval();
    sim.eval();
    for (NetId n = 0; n < nl.net_count(); ++n) {
      EXPECT_EQ(sim.block(n).w[0], ref.block(n).w[0])
          << "net " << n << " safe=" << safe;
    }
  }
}

TEST(TapeOpt, DeadSlotEliminationKeepsRoots) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId x = nl.add_cell(CellKind::kXor2, a, b);
  const NetId dead1 = nl.add_cell(CellKind::kAnd2, a, b);
  const NetId dead2 = nl.add_cell(CellKind::kOr2, dead1, a);
  const NetId fed = nl.add_cell(CellKind::kAnd2, x, b);  // feeds a DFF
  const NetId q = nl.add_cell(CellKind::kDff, fed);
  nl.bind_output("y", Bus{{x}});
  (void)q;

  OptStats st;
  const auto pruned = opt::eliminate_dead(*compile(nl), &st);
  EXPECT_EQ(st.dead_removed, 2u);
  EXPECT_EQ(pruned->instrs().size(), 2u);  // x (PO) and fed (D pin)
  EXPECT_TRUE(pruned->materialized(x));
  EXPECT_TRUE(pruned->materialized(fed));
  EXPECT_TRUE(pruned->materialized(q));
  EXPECT_FALSE(pruned->materialized(dead1));
  EXPECT_FALSE(pruned->materialized(dead2));

  // Forcing an eliminated net is a silent no-op (matches the interpreter,
  // where the dead cone reaches no observable); observing it throws.
  WideSimulator<1> sim(pruned);
  sim.force(dead1, LaneBlock<1>::ones(), LaneBlock<1>::ones());
  sim.release(dead1, LaneBlock<1>::ones());
  sim.eval();
  EXPECT_THROW((void)sim.block(dead1), std::invalid_argument);
}

TEST(TapeOpt, FullAdderFusionPairsSymmetricTuples) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const NetId s = nl.add_cell(CellKind::kAddSum, a, b, c);
  const NetId g = nl.add_cell(CellKind::kAddCarry, a, b, c);
  const NetId g2 = nl.add_cell(CellKind::kAddCarry, a, c, b);  // reordered
  const NetId s2 = nl.add_cell(CellKind::kAddSum, b, c, a);    // reordered
  const NetId lone = nl.add_cell(CellKind::kAddCarry, a, b, b);  // no partner
  nl.bind_output("s", Bus{{s}});
  nl.bind_output("g", Bus{{g}});
  nl.bind_output("g2", Bus{{g2}});
  nl.bind_output("s2", Bus{{s2}});
  nl.bind_output("lone", Bus{{lone}});

  // Sum and carry are symmetric in (a, b, c): pairs match modulo operand
  // permutation, so both the exact (s, g) pair and the permuted (g2, s2)
  // pair fuse; `lone` has no partner over {a, b, b}.
  OptStats st;
  const auto fused = opt::fuse_full_adders(*compile(nl), &st);
  EXPECT_EQ(st.fused_pairs, 2u);
  ASSERT_EQ(fused->instrs().size(), 3u);
  const Instr* fa = nullptr;
  for (const Instr& it : fused->instrs()) {
    if (it.op == Op::kFullAdd && it.out == fused->slot_of(s)) fa = &it;
  }
  ASSERT_NE(fa, nullptr);
  EXPECT_EQ(fa->out2, fused->slot_of(g));

  WideSimulator<1> sim(fused);
  const std::uint64_t va = 0xF0F0F0F0F0F0F0F0ull;
  const std::uint64_t vb = 0xCCCCCCCCCCCCCCCCull;
  const std::uint64_t vc = 0xAAAAAAAAAAAAAAAAull;
  sim.set_input_block(a, LaneBlock<1>{{va}});
  sim.set_input_block(b, LaneBlock<1>{{vb}});
  sim.set_input_block(c, LaneBlock<1>{{vc}});
  sim.eval();
  EXPECT_EQ(sim.block(s).w[0], va ^ vb ^ vc);
  EXPECT_EQ(sim.block(s2).w[0], va ^ vb ^ vc);
  EXPECT_EQ(sim.block(g).w[0], (va & vb) | (vc & (va ^ vb)));
  EXPECT_EQ(sim.block(g2).w[0], (va & vb) | (vc & (va ^ vb)));
  EXPECT_EQ(sim.block(lone).w[0], vb);  // maj(a, b, b) = b
}

TEST(TapeOpt, RenumberCompactsOrphanedSlots) {
  const Netlist nl = fold_fixture();
  const auto raw = compile(nl);
  const auto full = opt::fold_constants(*raw, /*fault_safe=*/false);
  const auto pruned = opt::eliminate_dead(*full);
  OptStats st;
  const auto packed = opt::renumber(*pruned, &st);
  // The m^0 alias orphaned one slot; everything else keeps a net.
  EXPECT_EQ(st.slots_after, packed->slot_count());
  EXPECT_LT(packed->slot_count(), raw->slot_count());
  // Slot maps stay coherent: every materialized net's slot is in range and
  // round-trips through net_of for its occupant.
  for (NetId n = 0; n < nl.net_count(); ++n) {
    if (!packed->materialized(n)) continue;
    EXPECT_LT(packed->slot_of(n), packed->slot_count());
  }
}

TEST(TapeOpt, OptimizePipelineAccumulatesStats) {
  const Netlist nl = fold_fixture();
  const auto raw = compile(nl);
  OptStats st;
  const auto tape = opt::optimize(*raw, OptLevel::kSafe, &st);
  EXPECT_EQ(st.instrs_before, raw->instrs().size());
  EXPECT_EQ(st.instrs_after, tape->instrs().size());
  EXPECT_EQ(st.slots_before, raw->slot_count());
  EXPECT_EQ(st.slots_after, tape->slot_count());
  EXPECT_EQ(tape->opt_stats().folded, st.folded);
  EXPECT_EQ(tape->level(), OptLevel::kSafe);
  EXPECT_THROW((void)opt::optimize(*raw, OptLevel::kNone, nullptr),
               std::invalid_argument);
}

TEST(TapeOpt, CompileWithLevelMatchesPipeline) {
  const Netlist nl = fold_fixture();
  const auto direct = compile(nl, OptLevel::kFull);
  const auto staged = opt::optimize(*compile(nl), OptLevel::kFull);
  EXPECT_EQ(direct->instrs().size(), staged->instrs().size());
  EXPECT_EQ(direct->slot_count(), staged->slot_count());
  EXPECT_EQ(direct->level(), OptLevel::kFull);
  const auto raw = compile(nl, OptLevel::kNone);
  EXPECT_EQ(raw->level(), OptLevel::kNone);
}

TEST(TapeOpt, BatchSessionRefusesFullTapesForFaults) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId z = nl.add_cell(CellKind::kConst0);
  const NetId n = nl.add_cell(CellKind::kXor2, a, z);
  const NetId q = nl.add_cell(CellKind::kDff, n);
  nl.bind_output("y", Bus{{q}});

  WideBatchSession<1> full(compile(nl, OptLevel::kFull));
  Fault f;
  f.kind = FaultKind::kStuckAt1;
  f.net = n;
  f.cycle = 0;
  EXPECT_THROW(full.arm(0, f), std::invalid_argument);

  WideBatchSession<1> safe(compile(nl, OptLevel::kSafe));
  EXPECT_NO_THROW(safe.arm(0, f));
}

// A glitch on a net the kSafe folder turned into a constant (a & const0 is
// absorbing, so its instruction is deleted and only the constant-image slot
// remains) must end with the scheduled cycle.  The interpreter re-evaluates
// the still-present cell on the next settle; the compiled engine has no
// instruction to do that, so release() restores the slot from the constant
// image -- without it the glitch behaves as a stuck-at on that lane.
TEST(TapeOpt, GlitchOnFoldedConstantNetIsTransient) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId z = nl.add_cell(CellKind::kConst0);
  const NetId g = nl.add_cell(CellKind::kAnd2, a, z);  // folds at kSafe
  const NetId x = nl.add_cell(CellKind::kXor2, g, a);
  const NetId q = nl.add_cell(CellKind::kDff, x);
  nl.bind_output("y", Bus{{q}});
  nl.bind_output("yg", Bus{{g}});

  Fault f;
  f.kind = FaultKind::kGlitch;
  f.net = g;
  f.cycle = 1;
  f.glitch_value = true;

  Simulator ref_sim(nl);
  FaultInjector ref(nl, ref_sim);
  ref.arm(f);

  const auto tape = compile(nl, OptLevel::kSafe);
  ASSERT_EQ(tape->instrs().size(), 1u);  // only x survives; g is folded
  WideBatchSession<1> ses(tape);
  ses.arm(/*lane=*/0, f);

  const std::uint64_t stim = 0b110101;
  for (std::uint64_t cyc = 0; cyc < 6; ++cyc) {
    const bool av = ((stim >> cyc) & 1) != 0;
    ref.set_input(a, av);
    ses.sim().set_input_block(a, av ? LaneBlock<1>::ones()
                                    : LaneBlock<1>::zeros());
    ref.step();
    ses.step();
    for (const NetId n : {g, x, q}) {
      // Lane 0 carries the glitch; lane 1 is fault-free and must match too.
      // Fault-free: g = a & 0 = 0, x = g ^ a = a, and the edge at the end
      // of this cycle clocks the settled x into q.
      EXPECT_EQ(ses.sim().value(n, 0), ref.value(n))
          << "net " << n << " cycle " << cyc;
      EXPECT_EQ(ses.sim().value(n, 1), n == g ? false : av)
          << "net " << n << " cycle " << cyc;
    }
  }
}

// Same contract on the 256-lane engine: a release on a folded constant
// reloads the image at the next eval() -- lazily, like every other released
// net -- and only on lanes no longer pinned.
TEST(TapeOpt, WideReleaseRestoresFoldedConstant) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId o = nl.add_cell(CellKind::kConst1);
  const NetId g = nl.add_cell(CellKind::kOr2, a, o);  // folds to const1
  nl.bind_output("y", Bus{{g}});

  WideSimulator<4> sim(compile(nl, OptLevel::kSafe));
  const auto l200 = LaneBlock<4>::lane_bit(200);
  const auto l7 = LaneBlock<4>::lane_bit(7);
  auto both = l200;
  both |= l7;
  sim.force(g, both, LaneBlock<4>::zeros());
  sim.eval();
  EXPECT_FALSE(sim.value(g, 200));
  EXPECT_FALSE(sim.value(g, 7));
  sim.release(g, l200);
  EXPECT_FALSE(sim.value(g, 200));  // lazy: visible until the next eval()
  sim.eval();
  EXPECT_TRUE(sim.value(g, 200));  // restored from the constant image
  EXPECT_FALSE(sim.value(g, 7));   // still pinned
  sim.release(g, l7);
  sim.eval();
  EXPECT_TRUE(sim.value(g, 7));
  EXPECT_TRUE(sim.value(g, 200));
}

TEST(TapeOpt, ConstImageSurvivesWideReset) {
  Netlist nl;
  const NetId one = nl.add_cell(CellKind::kConst1);
  const NetId a = nl.add_input("a");
  const NetId n = nl.add_cell(CellKind::kAnd2, a, one);
  nl.bind_output("y", Bus{{n}});
  const auto tape = compile(nl, OptLevel::kSafe);
  WideSimulator<4> sim(tape);
  sim.reset();
  EXPECT_EQ(sim.block(one), LaneBlock<4>::ones());
  sim.set_input_block(a, LaneBlock<4>::ones());
  sim.eval();
  EXPECT_EQ(sim.block(n), LaneBlock<4>::ones());
}

TEST(TapeOpt, WideLanesAreIndependent) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId x = nl.add_cell(CellKind::kXor2, a, b);
  const NetId q = nl.add_cell(CellKind::kDff, x);
  nl.bind_output("y", Bus{{q}});

  WideSimulator<4> sim(compile(nl));
  ASSERT_EQ(WideSimulator<4>::kTotalLanes, 256u);
  // Drive lane L of `a` with bit parity of L and `b` with 1, lane-by-lane.
  for (unsigned lane = 0; lane < 256; lane += 3) {
    sim.set_input(a, lane, (lane & 1) != 0);
    sim.set_input(b, lane, true);
  }
  sim.step();
  for (unsigned lane = 0; lane < 256; lane += 3) {
    EXPECT_EQ(sim.value(q, lane), (lane & 1) == 0) << "lane " << lane;
  }

  // Force and SEU overlays address the full 256-lane space.
  sim.force(x, LaneBlock<4>::lane_bit(200), LaneBlock<4>::lane_bit(200));
  sim.eval();
  EXPECT_TRUE(sim.value(x, 200));
  sim.release(x, LaneBlock<4>::lane_bit(200));
  sim.clock_edge();
  sim.flip_state(q, LaneBlock<4>::lane_bit(70));
  EXPECT_TRUE(sim.value(q, 70));
}

}  // namespace
}  // namespace dwt::rtl::compiled
