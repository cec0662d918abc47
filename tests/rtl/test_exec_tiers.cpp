// Execution-tier seam: the native tier must compute exactly the words the
// switch interpreter computes -- on clean runs, under fault overlays (where
// the native tier transparently drops to the interpreter), and across
// resets.  Also pins the tier-resolution policy: kAuto picks the fastest
// supported tier and DWT_EXEC_TIER overrides every request, failing safe to
// the interpreter on values it cannot parse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hw/designs.hpp"
#include "rtl/compiled/exec_tier.hpp"
#include "rtl/compiled/native_block.hpp"
#include "rtl/compiled/tape.hpp"
#include "rtl/compiled/wide_simulator.hpp"

namespace dwt {
namespace {

using rtl::compiled::ExecTier;
using rtl::compiled::NativeBlock;
using rtl::compiled::OptLevel;
using rtl::compiled::Tape;
using rtl::compiled::WideSimulator;

/// Drives identical random stimulus into an interpreter reference and a
/// native-tier subject over the same tape, and requires every materialized
/// net to match on every cycle.
template <unsigned W>
void expect_native_matches(const rtl::Netlist& nl, OptLevel level,
                           std::uint64_t seed, bool with_faults) {
  using Block = rtl::compiled::LaneBlock<W>;
  const std::shared_ptr<const Tape> tape = rtl::compiled::compile(nl, level);
  WideSimulator<W> ref(tape);
  WideSimulator<W> sub(tape);
  sub.set_native(NativeBlock::build(*tape, W));
  if (std::getenv("DWT_EXEC_TIER") == nullptr) {
    ASSERT_EQ(sub.exec_tier(), ExecTier::kNative);
  }

  const std::vector<rtl::NetId>& pis = nl.primary_inputs();
  common::Rng rng(seed);
  for (std::uint64_t cycle = 0; cycle < 24; ++cycle) {
    for (const rtl::NetId pi : pis) {
      Block b;
      for (unsigned k = 0; k < W; ++k) b.w[k] = rng.next_u64();
      ref.set_input_block(pi, b);
      sub.set_input_block(pi, b);
    }
    if (with_faults && cycle == 6) {
      // Pin a handful of lanes of the first few nets; the native tier must
      // drop to the interpreter and still match.
      for (rtl::NetId n = 0; n < nl.net_count() && n < 5; ++n) {
        Block lanes;
        Block values;
        for (unsigned k = 0; k < W; ++k) {
          lanes.w[k] = rng.next_u64();
          values.w[k] = rng.next_u64();
        }
        ref.force(n, lanes, values);
        sub.force(n, lanes, values);
      }
    }
    if (with_faults && cycle == 14) {
      for (rtl::NetId n = 0; n < nl.net_count() && n < 5; ++n) {
        ref.release(n, Block::ones());
        sub.release(n, Block::ones());
      }
    }
    ref.step();
    sub.step();
    for (rtl::NetId n = 0; n < nl.net_count(); ++n) {
      if (!tape->materialized(n)) continue;
      ASSERT_EQ(ref.block(n), sub.block(n))
          << "native W=" << W << " net " << n
          << " cycle " << cycle << " faults=" << with_faults;
    }
  }
}

TEST(ExecTier, ParseAndPrintRoundTrip) {
  ExecTier t = ExecTier::kAuto;
  EXPECT_TRUE(rtl::compiled::parse_exec_tier("interpreter", &t));
  EXPECT_EQ(t, ExecTier::kSwitch);
  EXPECT_TRUE(rtl::compiled::parse_exec_tier("switch", &t));
  EXPECT_EQ(t, ExecTier::kSwitch);
  EXPECT_TRUE(rtl::compiled::parse_exec_tier("native", &t));
  EXPECT_EQ(t, ExecTier::kNative);
  EXPECT_TRUE(rtl::compiled::parse_exec_tier("auto", &t));
  EXPECT_EQ(t, ExecTier::kAuto);
  EXPECT_FALSE(rtl::compiled::parse_exec_tier("jit", &t));
  EXPECT_FALSE(rtl::compiled::parse_exec_tier("threaded", &t));
  EXPECT_STREQ(to_string(ExecTier::kSwitch), "interpreter");
  EXPECT_STREQ(to_string(ExecTier::kNative), "native");
}

TEST(ExecTier, AutoResolvesToConcreteTier) {
  for (const unsigned words : {1u, 2u, 4u}) {
    const ExecTier t = rtl::compiled::resolve_exec_tier(ExecTier::kAuto, words);
    EXPECT_NE(t, ExecTier::kAuto);
    if (rtl::compiled::native_supported(words)) {
      EXPECT_EQ(t, ExecTier::kNative);
    } else {
      EXPECT_EQ(t, ExecTier::kSwitch);
    }
  }
}

TEST(ExecTier, EnvOverrideWinsOverRequest) {
  const hw::BuiltDatapath dp = hw::build_design(hw::DesignId::kDesign1);
  const auto tape = rtl::compiled::compile(dp.netlist, OptLevel::kNone);
  WideSimulator<1> sim(tape);
  ::setenv("DWT_EXEC_TIER", "interpreter", 1);
  EXPECT_EQ(rtl::compiled::resolve_exec_tier(ExecTier::kNative, 4),
            ExecTier::kSwitch);
  sim.set_native(NativeBlock::build(*tape, 1));
  EXPECT_EQ(sim.exec_tier(), ExecTier::kSwitch);
  EXPECT_EQ(sim.native_block(), nullptr);
  // A value the kill-switch cannot parse -- the retired "threaded" tier or
  // a typo -- must not leave the JIT on: it selects the interpreter, and
  // the first one is reported once on stderr.
  testing::internal::CaptureStderr();
  for (const char* bad : {"threaded", "bogus"}) {
    ::setenv("DWT_EXEC_TIER", bad, 1);
    EXPECT_EQ(rtl::compiled::resolve_exec_tier(ExecTier::kNative, 1),
              ExecTier::kSwitch)
        << bad;
    EXPECT_EQ(rtl::compiled::resolve_exec_tier(ExecTier::kAuto, 1),
              ExecTier::kSwitch)
        << bad;
    sim.set_native(NativeBlock::build(*tape, 1));
    EXPECT_EQ(sim.native_block(), nullptr) << bad;
    EXPECT_EQ(sim.exec_tier(), ExecTier::kSwitch) << bad;
  }
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  EXPECT_NE(err.find("DWT_EXEC_TIER=threaded"), std::string::npos) << err;
  // Empty and "auto" are no override at all.
  for (const char* none : {"", "auto"}) {
    ::setenv("DWT_EXEC_TIER", none, 1);
    EXPECT_EQ(rtl::compiled::resolve_exec_tier(ExecTier::kSwitch, 1),
              ExecTier::kSwitch);
    EXPECT_EQ(rtl::compiled::resolve_exec_tier(ExecTier::kAuto, 1),
              rtl::compiled::resolve_exec_tier(ExecTier::kNative, 1));
  }
  ::unsetenv("DWT_EXEC_TIER");
}

TEST(ExecTier, NativeMatchesSwitchAllWidths) {
  const hw::BuiltDatapath dp = hw::build_design(hw::DesignId::kDesign3);
  for (const OptLevel level :
       {OptLevel::kNone, OptLevel::kSafe, OptLevel::kFull}) {
    if (rtl::compiled::native_supported(1)) {
      expect_native_matches<1>(dp.netlist, level, 301, false);
    }
    if (rtl::compiled::native_supported(4)) {
      expect_native_matches<2>(dp.netlist, level, 302, false);
      expect_native_matches<4>(dp.netlist, level, 303, false);
    }
  }
}

TEST(ExecTier, NativeMatchesSwitchUnderFaultOverlays) {
  // Forces make eval() bypass the native block; results must still match.
  if (!rtl::compiled::native_supported(4)) {
    GTEST_SKIP() << "native tier unsupported on this host";
  }
  const hw::BuiltDatapath dp = hw::build_design(hw::DesignId::kDesign5);
  expect_native_matches<4>(dp.netlist, OptLevel::kSafe, 401, true);
}

TEST(ExecTier, NativeBlockIsDeterministicAndSized) {
  if (!rtl::compiled::native_supported(4)) {
    GTEST_SKIP() << "native tier unsupported on this host";
  }
  const hw::BuiltDatapath dp = hw::build_design(hw::DesignId::kDesign1);
  const auto tape = rtl::compiled::compile(dp.netlist, OptLevel::kFull);
  const auto a = NativeBlock::build(*tape, 4);
  const auto b = NativeBlock::build(*tape, 4);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_GT(a->code_size(), 0u);
  EXPECT_EQ(a->code_size(), b->code_size());
  EXPECT_EQ(a->instr_count(), tape->instrs().size());
  EXPECT_EQ(a->words(), 4u);
}

TEST(ExecTier, SetNativeRejectsMismatchedBlock) {
  if (!rtl::compiled::native_supported(4)) {
    GTEST_SKIP() << "native tier unsupported on this host";
  }
  const hw::BuiltDatapath dp = hw::build_design(hw::DesignId::kDesign1);
  const auto tape = rtl::compiled::compile(dp.netlist, OptLevel::kFull);
  const auto wrong_width = NativeBlock::build(*tape, 2);
  ASSERT_NE(wrong_width, nullptr);
  WideSimulator<4> sim(tape);
  EXPECT_THROW(sim.set_native(wrong_width), std::invalid_argument);
  const auto other_tape = rtl::compiled::compile(dp.netlist, OptLevel::kNone);
  const auto other = NativeBlock::build(*other_tape, 4);
  ASSERT_NE(other, nullptr);
  EXPECT_THROW(sim.set_native(other), std::invalid_argument);
  sim.set_native(NativeBlock::build(*tape, 4));
  EXPECT_EQ(sim.exec_tier(), ExecTier::kNative);
}

/// The native clock edge replaces the two-phase DFF copy with one
/// dependency-ordered pass, so the hazardous layouts are shift chains
/// (d = upstream q, must copy downstream-first), register rings (q's
/// feeding each other's d's, scratch round-trip) and self-loops (d = own
/// q, a no-op).  Build all three explicitly and require native step() to
/// track the switch interpreter cycle for cycle.
TEST(ExecTier, NativeEdgeOrdersChainsRingsAndSelfLoops) {
  if (!rtl::compiled::native_supported(1)) {
    GTEST_SKIP() << "native tier unsupported on this host";
  }
  rtl::Netlist nl;
  const rtl::NetId pi = nl.add_input("pi");
  // Shift chain: pi -> a -> b -> c.  The builder emits the chain upstream-
  // first, so a naive in-order edge copy would shift the whole chain in one
  // cycle instead of one stage per cycle.
  const rtl::NetId qa = nl.add_cell(rtl::CellKind::kDff, pi);
  const rtl::NetId qb = nl.add_cell(rtl::CellKind::kDff, qa);
  const rtl::NetId qc = nl.add_cell(rtl::CellKind::kDff, qb);
  // Two-register ring (swap): d_x = q_y, d_y = q_x -- only constructible by
  // rewiring, exactly how netlist rewrites create DFFs before their cones.
  const rtl::NetId qx = nl.add_cell(rtl::CellKind::kDff, pi);
  const rtl::NetId qy = nl.add_cell(rtl::CellKind::kDff, qx);
  nl.rewire_input(nl.net(qx).driver, 0, qy);
  // Self-loop: d = own q.
  const rtl::NetId qs = nl.add_cell(rtl::CellKind::kDff, pi);
  nl.rewire_input(nl.net(qs).driver, 0, qs);
  // Observable mix so nothing is trivially dead.
  const rtl::NetId obs1 = nl.add_cell(rtl::CellKind::kXor2, qc, qy);
  const rtl::NetId obs2 = nl.add_cell(rtl::CellKind::kXor2, qs, qx);
  nl.bind_output("obs", rtl::Bus{{obs1, obs2}});

  expect_native_matches<1>(nl, OptLevel::kNone, 501, false);
  expect_native_matches<4>(nl, OptLevel::kNone, 502, false);
}

TEST(ExecTier, TierSurvivesReset) {
  const hw::BuiltDatapath dp = hw::build_design(hw::DesignId::kDesign2);
  const auto tape = rtl::compiled::compile(dp.netlist, OptLevel::kFull);
  WideSimulator<2> a(tape);
  WideSimulator<2> b(tape);
  b.set_native(NativeBlock::build(*tape, 2));
  common::Rng rng(77);
  const std::vector<rtl::NetId>& pis = dp.netlist.primary_inputs();
  for (int round = 0; round < 2; ++round) {
    a.reset();
    b.reset();
    for (int cycle = 0; cycle < 8; ++cycle) {
      for (const rtl::NetId pi : pis) {
        rtl::compiled::LaneBlock<2> blk;
        for (unsigned k = 0; k < 2; ++k) blk.w[k] = rng.next_u64();
        a.set_input_block(pi, blk);
        b.set_input_block(pi, blk);
      }
      a.step();
      b.step();
    }
    for (rtl::NetId n = 0; n < dp.netlist.net_count(); ++n) {
      if (!tape->materialized(n)) continue;
      ASSERT_EQ(a.block(n), b.block(n)) << "net " << n << " round " << round;
    }
  }
}

}  // namespace
}  // namespace dwt
