#include "rtl/compiled/batch_fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/artifact_cache.hpp"
#include "dsp/image_gen.hpp"
#include "hw/designs.hpp"
#include "hw/stream_runner.hpp"
#include "rtl/builder.hpp"
#include "rtl/compiled/cone_index.hpp"
#include "rtl/compiled/exec_tier.hpp"
#include "rtl/compiled/tape.hpp"
#include "rtl/fault.hpp"
#include "rtl/harden.hpp"

namespace dwt::rtl::compiled {
namespace {

// ---------------------------------------------------------------------------
// ConeIndex on hand-built netlists
// ---------------------------------------------------------------------------

TEST(ConeIndex, CombinationalChainSpans) {
  // a -> n1 -> n2 -> n3, side input b into n2.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId n1 = nl.add_cell(CellKind::kNot, a);
  const NetId n2 = nl.add_cell(CellKind::kAnd2, n1, b);
  const NetId n3 = nl.add_cell(CellKind::kNot, n2);
  const auto tape = compile(nl);
  const auto cone = ConeIndex::build(*tape);
  ASSERT_EQ(cone->instr_count(), 3u);

  // a's cone covers all three instructions; n3 has no readers -- empty cone.
  const ConeSpan sa = cone->span_of_net(*tape, a);
  EXPECT_EQ(sa.lo, 0u);
  EXPECT_EQ(sa.hi, 3u);
  EXPECT_TRUE(cone->span_of_net(*tape, n3).empty());
  // b feeds n2, whose fan-out reaches n3: contiguous cover of both.
  const ConeSpan sb = cone->span_of_net(*tape, b);
  EXPECT_EQ(sb.length(), 2u);
  // Every span is an interval inside the tape.
  for (const NetId n : {a, b, n1, n2, n3}) {
    const ConeSpan s = cone->span_of_net(*tape, n);
    EXPECT_LE(s.lo, s.hi);
    EXPECT_LE(s.hi, cone->instr_count());
  }
}

TEST(ConeIndex, DInheritsQConeAcrossRegister) {
  // x -> DFF -> inverter: a corrupted D strikes the inverter one cycle
  // later, so D's cone must cover Q's readers.
  Netlist nl;
  const NetId x = nl.add_input("x");
  const NetId d = nl.add_cell(CellKind::kNot, x);
  const NetId q = nl.add_cell(CellKind::kDff, d);
  const NetId y = nl.add_cell(CellKind::kNot, q);
  (void)y;
  const auto tape = compile(nl);
  const auto cone = ConeIndex::build(*tape);
  const ConeSpan sq = cone->span_of_net(*tape, q);
  const ConeSpan sd = cone->span_of_net(*tape, d);
  EXPECT_FALSE(sq.empty());
  EXPECT_LE(sq.lo, sd.hi);
  // D's span covers everything Q's does.
  EXPECT_LE(sd.lo, sq.lo);
  EXPECT_GE(sd.hi, sq.hi);
}

TEST(GoldenTrace, RecordsPostSettleBitsPerCycle) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId n = nl.add_cell(CellKind::kNot, a);
  const auto tape = compile(nl);
  GoldenTrace trace(*tape);
  WideSimulator<1> sim(tape);
  for (int c = 0; c < 4; ++c) {
    sim.set_input_block(
        a, (c & 1) != 0 ? WideSimulator<1>::Block::ones()
                        : WideSimulator<1>::Block::zeros());
    sim.eval();
    trace.append(sim);
    sim.clock_edge();
  }
  ASSERT_EQ(trace.cycles(), 4u);
  for (std::uint64_t c = 0; c < 4; ++c) {
    EXPECT_EQ(trace.get(c, tape->slot_of(a)), (c & 1) != 0);
    EXPECT_EQ(trace.get(c, tape->slot_of(n)), (c & 1) == 0);
    EXPECT_EQ(trace.broadcast(c, tape->slot_of(n)),
              (c & 1) == 0 ? ~std::uint64_t{0} : 0u);
  }
}

TEST(GoldenTrace, RegisterOutputsReadTheirInputAfterTheEdge) {
  // x -> NOT -> DFF: after cycle c's edge the register holds what its D
  // settled to in cycle c, while the settled trace of Q is still the
  // previous cycle's value.
  Netlist nl;
  const NetId x = nl.add_input("x");
  const NetId d = nl.add_cell(CellKind::kNot, x);
  const NetId q = nl.add_cell(CellKind::kDff, d);
  const auto tape = compile(nl);
  GoldenTrace trace(*tape);
  WideSimulator<1> sim(tape);
  for (int c = 0; c < 4; ++c) {
    sim.set_input_block(x, (c & 1) != 0 ? WideSimulator<1>::Block::ones()
                                        : WideSimulator<1>::Block::zeros());
    sim.eval();
    trace.append(sim);
    sim.clock_edge();
  }
  for (std::uint64_t c = 0; c < 4; ++c) {
    EXPECT_EQ(trace.after_edge(c, tape->slot_of(q)), (c & 1) == 0);
    EXPECT_EQ(trace.after_edge(c, tape->slot_of(d)), (c & 1) == 0);
    EXPECT_EQ(trace.get(c, tape->slot_of(q)), c > 0 && (c & 1) != 0);
  }
}

// ---------------------------------------------------------------------------
// A batch session replaying the golden trace vs one simulating every cycle.
// The ConeSession suite keeps the name of the cone-restricted session these
// cases were written for; the replaying WideBatchSession took its place.
// ---------------------------------------------------------------------------

std::vector<std::int64_t> stimulus(std::size_t samples) {
  const dsp::Image img = dsp::make_still_tone_image(samples, 1, 42);
  std::vector<std::int64_t> x;
  for (std::size_t i = 0; i < samples; ++i) {
    x.push_back(static_cast<std::int64_t>(std::llround(img.at(i, 0))) - 128);
  }
  return x;
}

/// The fault-free trace of `x` through `dp` on `tape`.
std::shared_ptr<GoldenTrace> record_golden(const hw::BuiltDatapath& dp,
                                           std::shared_ptr<const Tape> tape,
                                           const std::vector<std::int64_t>& x) {
  auto trace = std::make_shared<GoldenTrace>(*tape);
  WideBatchSession<1> clean(std::move(tape));
  clean.set_trace(trace.get());
  (void)hw::run_stream_batch(dp, clean, x, 1);
  return trace;
}

/// A campaign-like random schedule over all four fault kinds on `dp`, one
/// fault per lane.
std::vector<Fault> draw_faults(const hw::BuiltDatapath& dp,
                               std::uint64_t total_cycles, unsigned lanes,
                               std::uint64_t seed) {
  const std::vector<NetId> seu = seu_targets(dp.netlist);
  const std::vector<NetId> stuck = stuck_targets(dp.netlist);
  const std::vector<NetId> glitch = glitch_targets(dp.netlist);
  const FaultKind kinds[] = {FaultKind::kSeuFlip, FaultKind::kGlitch,
                             FaultKind::kStuckAt0, FaultKind::kStuckAt1};
  common::Rng rng(seed);
  std::vector<Fault> faults(lanes);
  for (Fault& f : faults) {
    f.kind = kinds[static_cast<std::size_t>(rng.uniform(0, 3))];
    const std::vector<NetId>& pool = f.kind == FaultKind::kSeuFlip ? seu
                                     : f.kind == FaultKind::kGlitch ? glitch
                                                                    : stuck;
    f.net = pool[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(pool.size()) - 1))];
    f.cycle = static_cast<std::uint64_t>(
        rng.uniform(0, static_cast<std::int64_t>(total_cycles) - 2));
    f.glitch_value = rng.uniform(0, 1) != 0;
  }
  return faults;
}

/// Draws a campaign-like random schedule over all fault kinds, arms it on
/// both sessions, and requires bit-identical per-lane streams and watch
/// masks.  The replaying session also reads only its first 1, 63, 65 and
/// 200 lanes (those that fit), each from a fresh session with every lane
/// armed, so masked tail lanes of a partial word are in play.  With
/// `native`, the replaying session runs the cache's native block as a
/// campaign attaches it (settles and clock edges JIT'd, forced settles too
/// at W=4) against an interpreter-only session without the trace.
template <unsigned W>
void expect_replay_matches_full(hw::DesignId id, HardeningStyle harden,
                                bool native = false) {
  if (native && resolve_exec_tier(ExecTier::kNative, W) != ExecTier::kNative) {
    GTEST_SKIP() << "native tier unavailable for " << W << " words";
  }
  core::ArtifactCache& cache = core::ArtifactCache::instance();
  const hw::DesignSpec spec = hw::design_spec(id);
  const auto design = cache.design(spec.config, harden);
  const hw::BuiltDatapath& dp = design->dp;
  const auto tape = cache.tape(spec.config, harden, OptLevel::kSafe);
  const std::vector<std::int64_t> x = stimulus(16);
  const std::uint64_t total_cycles = hw::stream_cycle_count(dp, x.size());
  const auto trace = record_golden(dp, tape, x);
  ASSERT_EQ(trace->cycles(), total_cycles);

  const NetId flag = harden == HardeningStyle::kParity
                         ? dp.netlist.output(kErrorFlagPort).bits.front()
                         : kNullNet;
  constexpr unsigned kLanes = WideBatchSession<W>::kTotalLanes;
  const std::vector<Fault> faults = draw_faults(dp, total_cycles, kLanes, 1234);
  const auto arm = [&](WideBatchSession<W>& sess) {
    for (unsigned l = 0; l < kLanes; ++l) sess.arm(l, faults[l]);
    if (flag != kNullNet) sess.watch(flag);
  };
  WideBatchSession<W> full(tape);
  arm(full);
  const auto want = hw::run_stream_batch(dp, full, x, kLanes);
  ASSERT_EQ(want.size(), kLanes);
  for (const unsigned lanes : {kLanes, 1u, 63u, 65u, 200u}) {
    if (lanes > kLanes) continue;
    SCOPED_TRACE("reading " + std::to_string(lanes) + " lanes");
    WideBatchSession<W> restricted(tape, trace);
    if (native) {
      restricted.sim().set_native(cache.native_for(
          ExecTier::kNative, spec.config, harden, OptLevel::kSafe, W));
      ASSERT_EQ(restricted.sim().exec_tier(), ExecTier::kNative);
    }
    arm(restricted);
    const auto got = hw::run_stream_batch(dp, restricted, x, lanes);
    ASSERT_EQ(got.size(), lanes);
    for (unsigned l = 0; l < lanes; ++l) {
      EXPECT_EQ(want[l].low, got[l].low) << "lane " << l;
      EXPECT_EQ(want[l].high, got[l].high) << "lane " << l;
    }
    for (unsigned k = 0; k < W; ++k) {
      EXPECT_EQ(full.watch_block().w[k], restricted.watch_block().w[k]);
    }
  }
}

TEST(ConeSession, MatchesFullSessionDesign1) {
  expect_replay_matches_full<1>(hw::DesignId::kDesign1, HardeningStyle::kNone);
}

TEST(ConeSession, MatchesFullSessionDesign3Tmr) {
  expect_replay_matches_full<1>(hw::DesignId::kDesign3, HardeningStyle::kTmr);
}

TEST(ConeSession, MatchesFullSessionDesign2Parity) {
  expect_replay_matches_full<1>(hw::DesignId::kDesign2, HardeningStyle::kParity);
}

// The same cases with the native block attached to the replaying session,
// at the campaign's 64- and 256-lane widths.
TEST(ConeSession, MatchesFullSessionDesign1Native) {
  expect_replay_matches_full<1>(hw::DesignId::kDesign1, HardeningStyle::kNone,
                                true);
  expect_replay_matches_full<4>(hw::DesignId::kDesign1,
                                HardeningStyle::kNone, true);
}

TEST(ConeSession, MatchesFullSessionDesign3TmrNative) {
  expect_replay_matches_full<1>(hw::DesignId::kDesign3,
                                HardeningStyle::kTmr, true);
  expect_replay_matches_full<4>(hw::DesignId::kDesign3,
                                HardeningStyle::kTmr, true);
}

TEST(ConeSession, MatchesFullSessionDesign2ParityNative) {
  expect_replay_matches_full<1>(hw::DesignId::kDesign2,
                                HardeningStyle::kParity, true);
  expect_replay_matches_full<4>(hw::DesignId::kDesign2,
                                HardeningStyle::kParity, true);
}

// A session reset after a batch runs the next batch exactly as a new
// session does, with and without a trace: pins (a constant net's
// included), watches, watch hits and replay state do not carry over.
TEST(ConeSession, ResetSessionMatchesNewSession) {
  core::ArtifactCache& cache = core::ArtifactCache::instance();
  for (const auto& [id, harden] :
       {std::pair{hw::DesignId::kDesign2, HardeningStyle::kParity},
        std::pair{hw::DesignId::kDesign3, HardeningStyle::kTmr}}) {
    const hw::DesignSpec spec = hw::design_spec(id);
    const auto design = cache.design(spec.config, harden);
    const hw::BuiltDatapath& dp = design->dp;
    const auto tape = cache.tape(spec.config, harden, OptLevel::kSafe);
    const auto native = cache.native_for(ExecTier::kAuto, spec.config,
                                         harden, OptLevel::kSafe, 4);
    const std::vector<std::int64_t> x = stimulus(16);
    const std::uint64_t total_cycles = hw::stream_cycle_count(dp, x.size());
    const NetId flag = harden == HardeningStyle::kParity
                           ? dp.netlist.output(kErrorFlagPort).bits.front()
                           : kNullNet;
    // A net only the constant image writes, to be left pinned.
    NetId const_net = kNullNet;
    std::vector<std::uint8_t> written(tape->slot_count(), 0);
    for (const Instr& it : tape->instrs()) {
      written[it.out] = 1;
      if (it.out2 != kNullSlot) written[it.out2] = 1;
    }
    for (Slot s = 0; s < tape->slot_count() && const_net == kNullNet; ++s) {
      const NetId n = tape->net_of(s);
      if (!written[s] && !tape->is_primary_input(n) &&
          !tape->is_dff_output(n)) {
        const_net = n;
      }
    }
    ASSERT_NE(const_net, kNullNet);
    for (const auto& trace :
         {record_golden(dp, tape, x), std::shared_ptr<GoldenTrace>()}) {
      SCOPED_TRACE(spec.name + (trace ? " replaying" : " full"));
      WideBatchSession<4> reused(tape, trace);
      reused.sim().set_native(native);
      reused.sim().force(const_net, LaneBlock<4>::ones(), LaneBlock<4>::ones());
      reused.step();
      for (const std::uint64_t seed : {11u, 12u, 13u}) {
        const std::vector<Fault> faults =
            draw_faults(dp, total_cycles, 256, seed);
        WideBatchSession<4> fresh(tape, trace);
        fresh.sim().set_native(native);
        reused.reset();
        for (WideBatchSession<4>* sess : {&fresh, &reused}) {
          for (unsigned l = 0; l < 256; ++l) sess->arm(l, faults[l]);
          if (flag != kNullNet) sess->watch(flag);
        }
        const auto want = hw::run_stream_batch(dp, fresh, x, 256);
        const auto got = hw::run_stream_batch(dp, reused, x, 256);
        for (unsigned l = 0; l < 256; ++l) {
          ASSERT_EQ(want[l].low, got[l].low) << seed << " lane " << l;
          ASSERT_EQ(want[l].high, got[l].high) << seed << " lane " << l;
        }
        EXPECT_EQ(fresh.watch_block(), reused.watch_block()) << seed;
        EXPECT_EQ(fresh.skipped_cycles(), reused.skipped_cycles()) << seed;
        EXPECT_EQ(fresh.retired(), reused.retired()) << seed;
      }
    }
  }
}

TEST(ConeSession, SkipsCyclesBeforeEarliestFault) {
  core::ArtifactCache& cache = core::ArtifactCache::instance();
  const hw::DesignSpec spec = hw::design_spec(hw::DesignId::kDesign1);
  const auto dp = cache.design(spec.config);
  const auto tape =
      cache.tape(spec.config, HardeningStyle::kNone, OptLevel::kSafe);
  const auto cone =
      cache.cone_index(spec.config, HardeningStyle::kNone, OptLevel::kSafe);
  const std::vector<std::int64_t> x = stimulus(16);
  const auto trace = record_golden(dp->dp, tape, x);
  const std::uint64_t late = trace->cycles() - 2;
  // The glitch target with the tightest non-empty cone.
  NetId best = kNullNet;
  std::uint32_t best_len = 0;
  for (const NetId n : glitch_targets(dp->dp.netlist)) {
    const ConeSpan s = cone->span_of_net(*tape, n);
    if (s.empty()) continue;
    if (best == kNullNet || s.length() < best_len) {
      best = n;
      best_len = s.length();
    }
  }
  ASSERT_NE(best, kNullNet);
  Fault f;
  f.kind = FaultKind::kGlitch;
  f.net = best;
  f.cycle = late;
  WideBatchSession<1> full(tape);
  WideBatchSession<1> sess(tape, trace);
  full.arm(0, f);
  sess.arm(0, f);
  const auto want = hw::run_stream_batch(dp->dp, full, x, 1);
  const auto got = hw::run_stream_batch(dp->dp, sess, x, 1);
  EXPECT_EQ(want[0].low, got[0].low);
  EXPECT_EQ(want[0].high, got[0].high);
  EXPECT_EQ(sess.skipped_cycles(), late);
}

// ---------------------------------------------------------------------------
// Stuck-at faults never retire a batch: the force pins its net for the rest
// of the run.  Each case records the trace of a lane-uniform drive, runs one
// stuck-at fault on a session simulating every cycle and on one replaying
// the trace, and requires every lane of the observed buses to read the same
// after every cycle.
// ---------------------------------------------------------------------------

using Drive = std::function<void(WideBatchSession<1>&, std::uint64_t)>;

std::shared_ptr<GoldenTrace> record_driven(std::shared_ptr<const Tape> tape,
                                           std::uint64_t cycles,
                                           const Drive& drive) {
  auto trace = std::make_shared<GoldenTrace>(*tape);
  WideBatchSession<1> clean(std::move(tape));
  clean.set_trace(trace.get());
  for (std::uint64_t c = 0; c < cycles; ++c) {
    drive(clean, c);
    clean.step();
  }
  return trace;
}

void expect_stuck_never_retires(std::shared_ptr<const Tape> tape,
                                std::shared_ptr<const GoldenTrace> trace,
                                const Fault& f, const Drive& drive,
                                const std::vector<Bus>& observed) {
  constexpr unsigned kLanes = WideBatchSession<1>::kTotalLanes;
  WideBatchSession<1> full(tape);
  WideBatchSession<1> sess(tape, trace);
  full.arm(0, f);
  sess.arm(0, f);
  std::vector<std::int64_t> want(kLanes), got(kLanes);
  for (std::uint64_t c = 0; c < trace->cycles(); ++c) {
    drive(full, c);
    drive(sess, c);
    full.step();
    sess.step();
    for (const Bus& bus : observed) {
      full.read_bus_all(bus, want.data(), kLanes);
      sess.read_bus_all(bus, got.data(), kLanes);
      ASSERT_EQ(want, got) << "cycle " << c;
    }
    EXPECT_FALSE(sess.retired()) << "cycle " << c;
  }
  // Only the cycles before the fault are served from the trace.
  EXPECT_EQ(sess.skipped_cycles(), f.cycle);
}

// a -> NOT -> DFF -> NOT, driven a=1 for 4 cycles then a=0: the inverter
// output n1 is golden-0 early and golden-1 for the rest of the run.
struct InverterPipe {
  Netlist nl;
  NetId a = nl.add_input("a");
  NetId n1 = nl.add_cell(CellKind::kNot, a);
  NetId q = nl.add_cell(CellKind::kDff, n1);
  NetId y = nl.add_cell(CellKind::kNot, q);
  std::shared_ptr<const Tape> tape = compile(nl);
  static constexpr std::uint64_t kCycles = 12;

  void drive(WideBatchSession<1>& sess, std::uint64_t c) const {
    Bus bus;
    bus.bits = {a};
    // A 1-bit bus is signed: -1 drives the bit high.
    sess.set_bus(bus, c < 4 ? -1 : 0);
  }
  void run_stuck(FaultKind kind) const {
    const Drive d = [this](WideBatchSession<1>& s, std::uint64_t c) {
      drive(s, c);
    };
    Fault f;
    f.kind = kind;
    f.net = n1;
    f.cycle = 1;
    Bus ybus;
    ybus.bits = {y};
    expect_stuck_never_retires(tape, record_driven(tape, kCycles, d), f, d,
                               {ybus});
  }
};

// The forced 1 equals golden n1 from cycle 4 on, and the register goes
// golden after the edge of cycle 4, yet the pin stays: no retirement.
TEST(ConeSession, StuckAtMatchingGoldenTailNeverRetires) {
  InverterPipe().run_stuck(FaultKind::kStuckAt1);
}

// Same circuit, stuck-at-0 against a golden-1 tail: the force never stops
// mattering.
TEST(ConeSession, StuckAtAgainstGoldenTailNeverRetires) {
  InverterPipe().run_stuck(FaultKind::kStuckAt0);
}

// On a real design: drive 16 sample pairs, then hold the last one, so the
// pipeline settles; force the stuck target whose golden trace turns
// constant latest (with room left to drain) to its tail value.
TEST(ConeSession, StuckAtOnRealDesignConstantTailNeverRetires) {
  core::ArtifactCache& cache = core::ArtifactCache::instance();
  const hw::DesignSpec spec = hw::design_spec(hw::DesignId::kDesign1);
  const auto design = cache.design(spec.config);
  const hw::BuiltDatapath& dp = design->dp;
  const auto tape =
      cache.tape(spec.config, HardeningStyle::kNone, OptLevel::kSafe);
  const auto cone =
      cache.cone_index(spec.config, HardeningStyle::kNone, OptLevel::kSafe);
  const std::vector<std::int64_t> x = stimulus(32);
  const std::uint64_t margin = static_cast<std::uint64_t>(dp.info.latency) + 4;
  const std::uint64_t cycles = 16 + 3 * margin;
  const Drive drive = [&](WideBatchSession<1>& sess, std::uint64_t c) {
    const std::size_t pair = std::min<std::uint64_t>(c, 15);
    sess.set_bus(dp.in_even, x[2 * pair]);
    sess.set_bus(dp.in_odd, x[2 * pair + 1]);
  };
  const auto trace = record_driven(tape, cycles, drive);

  // tail > 0: the force genuinely corrupts the cycles before the tail.
  NetId best = kNullNet;
  bool best_value = false;
  std::uint64_t best_tail = 0;
  for (const NetId n : stuck_targets(dp.netlist)) {
    const Slot s = tape->slot_of(n);
    if (s == kNullSlot || cone->span_of_net(*tape, n).empty()) continue;
    const bool v = trace->get(cycles - 1, s);
    std::uint64_t tail = cycles;
    while (tail > 0 && trace->get(tail - 1, s) == v) --tail;
    if (tail > 0 && tail + margin <= cycles && tail > best_tail) {
      best = n;
      best_value = v;
      best_tail = tail;
    }
  }
  ASSERT_NE(best, kNullNet) << "no stuck target with a constant golden tail";

  Fault f;
  f.kind = best_value ? FaultKind::kStuckAt1 : FaultKind::kStuckAt0;
  f.net = best;
  f.cycle = 1;
  expect_stuck_never_retires(tape, trace, f, drive, {dp.out_low, dp.out_high});
}

TEST(ConeSession, RejectsLateArmAndForeignArtifacts) {
  core::ArtifactCache& cache = core::ArtifactCache::instance();
  const hw::DesignSpec spec = hw::design_spec(hw::DesignId::kDesign1);
  const auto dp = cache.design(spec.config);
  const auto tape =
      cache.tape(spec.config, HardeningStyle::kNone, OptLevel::kSafe);
  const auto trace = record_golden(dp->dp, tape, stimulus(16));

  WideBatchSession<1> sess(tape, trace);
  Fault f;
  f.kind = FaultKind::kStuckAt0;
  f.net = 0;
  sess.arm(0, f);
  sess.step();
  EXPECT_THROW(sess.arm(1, f), std::logic_error);

  // A session stepped past its recorded trace fails loudly, not silently.
  WideBatchSession<1> runaway(tape, std::make_shared<GoldenTrace>(*tape));
  runaway.arm(0, f);
  EXPECT_THROW(runaway.step(), std::logic_error);

  // A trace made for a different tape is rejected up front.
  Netlist nl;
  const NetId a = nl.add_input("a");
  (void)nl.add_cell(CellKind::kNot, a);
  const auto other = compile(nl);
  EXPECT_THROW(WideBatchSession<1>(other, trace), std::invalid_argument);
  EXPECT_THROW(
      WideBatchSession<1>(tape, std::make_shared<GoldenTrace>(*other)),
      std::invalid_argument);
}

// An SEU-only batch on the 21-stage Design 3: every upset drains out of
// the pipeline, so the batch retires and the tail of the run is served from
// the trace, with the same streams as a session simulating every cycle.
TEST(ConeSession, TransientDesign3BatchRetires) {
  core::ArtifactCache& cache = core::ArtifactCache::instance();
  const hw::DesignSpec spec = hw::design_spec(hw::DesignId::kDesign3);
  const auto dp = cache.design(spec.config);
  const auto tape =
      cache.tape(spec.config, HardeningStyle::kNone, OptLevel::kSafe);
  const std::vector<std::int64_t> x = stimulus(32);
  const auto trace = record_golden(dp->dp, tape, x);
  const std::vector<NetId> seu = seu_targets(dp->dp.netlist);

  common::Rng rng(7);
  constexpr unsigned kLanes = WideBatchSession<1>::kTotalLanes;
  WideBatchSession<1> full(tape);
  WideBatchSession<1> sess(tape, trace);
  std::uint64_t first = trace->cycles();
  for (unsigned l = 0; l < kLanes; ++l) {
    Fault f;
    f.kind = FaultKind::kSeuFlip;
    f.net = seu[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(seu.size()) - 1))];
    f.cycle = static_cast<std::uint64_t>(rng.uniform(3, 10));
    first = std::min(first, f.cycle);
    full.arm(l, f);
    sess.arm(l, f);
  }
  const auto want = hw::run_stream_batch(dp->dp, full, x, kLanes);
  const auto got = hw::run_stream_batch(dp->dp, sess, x, kLanes);
  for (unsigned l = 0; l < kLanes; ++l) {
    EXPECT_EQ(want[l].low, got[l].low) << "lane " << l;
    EXPECT_EQ(want[l].high, got[l].high) << "lane " << l;
  }
  EXPECT_TRUE(sess.retired());
  EXPECT_GT(sess.skipped_cycles(), first);
}

}  // namespace
}  // namespace dwt::rtl::compiled
