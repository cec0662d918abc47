// Execution-tier seam: the native tier must compute exactly the words the
// switch interpreter computes -- on clean runs, under fault overlays (the
// native forced settle at W=4 on o1 tapes), and across resets.  Also pins
// the tier-resolution policy: kAuto picks the fastest supported tier and
// DWT_EXEC_TIER overrides every request, failing safe to the interpreter on
// values it cannot parse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/artifact_cache.hpp"
#include "hw/designs.hpp"
#include "rtl/compiled/exec_tier.hpp"
#include "rtl/compiled/native_block.hpp"
#include "rtl/compiled/tape.hpp"
#include "rtl/compiled/wide_simulator.hpp"
#include "rtl/harden.hpp"

namespace dwt {
namespace {

using rtl::compiled::ExecTier;
using rtl::compiled::Instr;
using rtl::compiled::NativeBlock;
using rtl::compiled::OptLevel;
using rtl::compiled::Slot;
using rtl::compiled::Tape;
using rtl::compiled::WideSimulator;

/// Drives identical random stimulus into an interpreter reference and a
/// native-tier subject over the same tape, and requires every materialized
/// net to match on every cycle.
template <unsigned W>
void expect_native_matches(const rtl::Netlist& nl, OptLevel level,
                           std::uint64_t seed) {
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
    ref.step();
    sub.step();
    for (rtl::NetId n = 0; n < nl.net_count(); ++n) {
      if (!tape->materialized(n)) continue;
      ASSERT_EQ(ref.block(n), sub.block(n))
          << "native W=" << W << " net " << n << " cycle " << cycle;
    }
  }
}

/// The same comparison with pins on random lanes of an o1 tape, so the
/// native subject runs its forced settle: every cycle a one-cycle pin on a
/// few random instruction outputs (kFullAdd's second output among them,
/// where the tape fused full adders) and on a source net; a stuck set of
/// outputs held across 10 edges; and a one-cycle pin on a const-source
/// slot, whose release reloads the constant image at the next settle.
/// Adds the number of full-adder carries pinned to `*carry_pins`.
template <unsigned W>
void expect_native_matches_forced(const rtl::Netlist& nl, std::uint64_t seed,
                                  std::size_t* carry_pins) {
  using Block = rtl::compiled::LaneBlock<W>;
  const std::shared_ptr<const Tape> tape =
      rtl::compiled::compile(nl, OptLevel::kSafe);
  WideSimulator<W> ref(tape);
  WideSimulator<W> sub(tape);
  sub.set_native(NativeBlock::build(*tape, W));
  if (std::getenv("DWT_EXEC_TIER") == nullptr) {
    ASSERT_EQ(sub.exec_tier(), ExecTier::kNative);
    ASSERT_TRUE(sub.native_block()->has_forced());
  }

  // Pin targets: instruction outputs, full-adder carries, source nets
  // (inputs and registers) and one slot only the constant image writes.
  std::vector<rtl::NetId> outs;
  std::vector<rtl::NetId> carries;
  std::vector<std::uint8_t> written(tape->slot_count(), 0);
  for (const Instr& it : tape->instrs()) {
    outs.push_back(tape->net_of(it.out));
    written[it.out] = 1;
    if (it.op == rtl::compiled::Op::kFullAdd) {
      carries.push_back(tape->net_of(it.out2));
      written[it.out2] = 1;
    }
  }
  std::vector<rtl::NetId> sources;
  rtl::NetId const_net = rtl::kNullNet;
  for (Slot s = 0; s < tape->slot_count(); ++s) {
    const rtl::NetId n = tape->net_of(s);
    if (tape->is_primary_input(n) || tape->is_dff_output(n)) {
      sources.push_back(n);
    } else if (!written[s] && const_net == rtl::kNullNet) {
      const_net = n;
    }
  }
  ASSERT_FALSE(sources.empty());
  ASSERT_NE(const_net, rtl::kNullNet);

  common::Rng rng(seed);
  const auto random_block = [&rng] {
    Block b;
    for (unsigned k = 0; k < W; ++k) b.w[k] = rng.next_u64();
    return b;
  };
  const auto pick = [&rng](const std::vector<rtl::NetId>& pool) {
    return pool[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };
  const auto pick_carry = [&] {
    if (carries.empty()) return pick(outs);
    ++*carry_pins;
    return pick(carries);
  };
  struct Pin {
    rtl::NetId net;
    Block lanes;
  };
  const auto force = [&](rtl::NetId net) {
    const Pin pin{net, random_block()};
    const Block values = random_block();
    ref.force(net, pin.lanes, values);
    sub.force(net, pin.lanes, values);
    return pin;
  };
  const auto release = [&](const std::vector<Pin>& pins) {
    for (const Pin& pin : pins) {
      ref.release(pin.net, pin.lanes);
      sub.release(pin.net, pin.lanes);
    }
  };

  const std::vector<rtl::NetId>& pis = nl.primary_inputs();
  std::vector<Pin> stuck;
  for (std::uint64_t cycle = 0; cycle < 32; ++cycle) {
    for (const rtl::NetId pi : pis) {
      const Block b = random_block();
      ref.set_input_block(pi, b);
      sub.set_input_block(pi, b);
    }
    if (cycle == 4) {
      for (int i = 0; i < 6; ++i) stuck.push_back(force(pick(outs)));
      for (int i = 0; i < 2; ++i) stuck.push_back(force(pick_carry()));
    }
    if (cycle == 14) {
      release(stuck);
      stuck.clear();
    }
    std::vector<Pin> glitches = {force(pick(outs)), force(pick(outs)),
                                 force(pick_carry()), force(pick(sources))};
    if (cycle == 7) glitches.push_back(force(const_net));
    ref.step();
    sub.step();
    release(glitches);
    for (rtl::NetId n = 0; n < nl.net_count(); ++n) {
      if (!tape->materialized(n)) continue;
      ASSERT_EQ(ref.block(n), sub.block(n))
          << "native forced W=" << W << " net " << n << " cycle " << cycle;
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
      expect_native_matches<1>(dp.netlist, level, 301);
    }
    if (rtl::compiled::native_supported(4)) {
      expect_native_matches<4>(dp.netlist, level, 303);
    }
  }
}

TEST(ExecTier, NativeMatchesSwitchUnderFaultOverlays) {
  if (!rtl::compiled::native_supported(4)) {
    GTEST_SKIP() << "native tier unsupported on this host";
  }
  core::ArtifactCache& cache = core::ArtifactCache::instance();
  std::uint64_t seed = 401;
  std::size_t carry_pins = 0;
  for (const hw::DesignSpec& spec : hw::all_designs()) {
    const hw::DatapathConfig& cfg = spec.config;
    for (const rtl::HardeningStyle harden :
         {rtl::HardeningStyle::kNone, rtl::HardeningStyle::kTmr,
          rtl::HardeningStyle::kParity}) {
      SCOPED_TRACE(spec.name + " " + rtl::to_string(harden));
      const auto design = cache.design(cfg, harden);
      expect_native_matches_forced<4>(design->dp.netlist, seed++, &carry_pins);
    }
    // o2 blocks have no forced entry, and their code is what it was before
    // the entry existed: bench/BENCH_compiled_sim.json's native_code_bytes.
    const auto o2 = NativeBlock::build(
        *cache.tape(cfg, rtl::HardeningStyle::kNone, OptLevel::kFull), 4);
    ASSERT_NE(o2, nullptr);
    EXPECT_FALSE(o2->has_forced());
    constexpr std::size_t kO2CodeBytes[] = {26392, 17972, 37256, 32264,
                                            53404};
    EXPECT_EQ(o2->code_size(), kO2CodeBytes[hw::design_index(spec.id) - 1]);
  }
  // The behavioral designs' o1 tapes fuse full adders.
  EXPECT_GT(carry_pins, 0u);
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
  // Blocks come in the simulator's two widths only.
  EXPECT_FALSE(rtl::compiled::native_supported(2));
  EXPECT_EQ(NativeBlock::build(*tape, 2), nullptr);
  const auto wrong_width = NativeBlock::build(*tape, 1);
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

  expect_native_matches<1>(nl, OptLevel::kNone, 501);
  expect_native_matches<4>(nl, OptLevel::kNone, 502);
}

TEST(ExecTier, TierSurvivesReset) {
  const hw::BuiltDatapath dp = hw::build_design(hw::DesignId::kDesign2);
  const auto tape = rtl::compiled::compile(dp.netlist, OptLevel::kFull);
  WideSimulator<4> a(tape);
  WideSimulator<4> b(tape);
  b.set_native(NativeBlock::build(*tape, 4));
  common::Rng rng(77);
  const std::vector<rtl::NetId>& pis = dp.netlist.primary_inputs();
  for (int round = 0; round < 2; ++round) {
    a.reset();
    b.reset();
    for (int cycle = 0; cycle < 8; ++cycle) {
      for (const rtl::NetId pi : pis) {
        rtl::compiled::LaneBlock<4> blk;
        for (unsigned k = 0; k < 4; ++k) blk.w[k] = rng.next_u64();
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
