// Batched fault overlay for the compiled engine: one fault per lane, so a
// single tape pass carries 64*W independent fault trials of a campaign
// (64 per state word; W words per slot -- see wide_simulator.hpp).
//
// Per-cycle semantics replicate rtl::FaultInjector::step() exactly, lane by
// lane: glitch/stuck forces pin their net during the settle of the scheduled
// cycles, watches are sampled after the settle, the clock edge samples the
// pinned D values, and SEUs strike the freshly clocked state.  A lane with
// no armed fault behaves as the plain simulator, which is what makes the
// differential checks (compiled-vs-interpreted, hardened-vs-golden) exact.
//
// arm() refuses tapes optimized past the fault-overlay-safe level (kFull
// folding redirects nets onto shared slots, so a per-lane pin would leak
// into other nets); fault-free streaming through the session is fine on any
// tape.
//
// A session given the campaign's GoldenTrace -- the fault-free run of the
// same stimulus, recorded once by a session with set_trace() -- replays it
// wherever the batch provably matches it:
//
//   * cycles before the earliest armed fault are skipped outright -- the
//     whole state is golden, so watches and bus reads are served from the
//     trace -- and the first fault's cycle starts from the registers the
//     trace holds for it;
//   * once every armed fault has struck and no lane is pinned, each
//     post-edge register state is compared against the trace; the first
//     match retires the batch, and the remaining cycles are served from the
//     trace like the prefix.  Transient faults (SEUs, glitches) release
//     their forces and drain out of the pipeline in a handful of cycles.
//     Stuck-at forces persist, so a batch holding one never retires.
//
// Replay changes only which cycles are simulated: watch masks and bus reads
// are bit-identical to a session without the trace, lane for lane
// (tests/rtl/test_cone_sim.cpp holds it to that).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "rtl/compiled/tape.hpp"
#include "rtl/compiled/wide_simulator.hpp"
#include "rtl/fault.hpp"

namespace dwt::rtl::compiled {

/// Packed fault-free state trace: one bit per (cycle, slot), sampled after
/// each settle (post-eval, pre-edge).  Recorded once per campaign on the
/// clean reference run and shared read-only by every replaying session.  A
/// clean batch run drives every lane identically, so one bit per slot loses
/// nothing.
class GoldenTrace {
 public:
  /// An empty trace for runs on `tape`.
  explicit GoldenTrace(const Tape& tape)
      : slot_count_(tape.slot_count()),
        words_per_cycle_((slot_count_ + 63) / 64),
        d_of_q_(slot_count_, kNullSlot) {
    for (const DffSlots& dff : tape.dffs()) d_of_q_[dff.q] = dff.d;
  }

  /// Whether the trace was made for `tape`: same slots, same registers.
  [[nodiscard]] bool fits(const Tape& tape) const {
    if (tape.slot_count() != slot_count_) return false;
    return std::all_of(tape.dffs().begin(), tape.dffs().end(),
                       [&](const DffSlots& dff) { return d_of_q_[dff.q] == dff.d; });
  }

  /// Appends the post-settle state of `sim` as the trace of its current
  /// cycle.  Lane 0 stands for all lanes.
  template <typename Sim>
  void append(const Sim& sim) {
    const std::size_t base = bits_.size();
    bits_.resize(base + words_per_cycle_, 0);
    for (std::size_t s = 0; s < slot_count_; ++s) {
      if (sim.slot_word(static_cast<Slot>(s), 0) & 1) {
        bits_[base + s / 64] |= std::uint64_t{1} << (s % 64);
      }
    }
    ++cycles_;
  }

  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

  [[nodiscard]] bool get(std::uint64_t cycle, Slot s) const {
    const std::size_t at = cycle * words_per_cycle_ + s / 64;
    return ((bits_[at] >> (s % 64)) & 1) != 0;
  }
  /// The slot's golden bit widened to a full lane word (0 or ~0).
  [[nodiscard]] std::uint64_t broadcast(std::uint64_t cycle, Slot s) const {
    return get(cycle, s) ? ~std::uint64_t{0} : 0;
  }
  /// Slot `s` after cycle `cycle`'s clock edge: a register output holds
  /// what its D slot settled to, every other slot its own settled value.
  [[nodiscard]] bool after_edge(std::uint64_t cycle, Slot s) const {
    const Slot d = d_of_q_[s];
    return get(cycle, d != kNullSlot ? d : s);
  }

  /// Bytes a trace of `cycles` cycles over `slot_count` slots would occupy;
  /// campaigns use it to simulate every cycle rather than record an
  /// unbounded trace for huge sample counts.
  [[nodiscard]] static std::uint64_t bytes_needed(std::uint64_t cycles,
                                                  std::size_t slot_count) {
    return cycles * ((slot_count + 63) / 64) * 8;
  }

 private:
  std::size_t slot_count_;
  std::size_t words_per_cycle_;
  std::vector<Slot> d_of_q_;  // per slot, kNullSlot when not a DFF Q
  std::uint64_t cycles_ = 0;
  std::vector<std::uint64_t> bits_;
};

template <unsigned W>
class WideBatchSession {
 public:
  using Sim = WideSimulator<W>;
  using Block = typename Sim::Block;
  static constexpr unsigned kTotalLanes = Sim::kTotalLanes;

  /// A session over `tape`; with `golden`, the fault-free trace of the
  /// stimulus the session will be fed, it replays the trace wherever the
  /// batch matches it (see the header note).  Throws std::invalid_argument
  /// for a trace made for another tape.
  explicit WideBatchSession(std::shared_ptr<const Tape> tape,
                            std::shared_ptr<const GoldenTrace> golden = nullptr)
      : sim_(std::move(tape)), golden_(std::move(golden)) {
    if (golden_ && !golden_->fits(sim_.tape())) {
      throw std::invalid_argument(
          "WideBatchSession: golden trace made for another tape");
    }
  }

  /// Readies the session for another batch over the same tape and trace,
  /// as if newly made (the attached native block stays): power-on state
  /// and no armed faults, pins, watches, watch hits or trace recording.
  /// A campaign worker resets one session per batch instead of allocating
  /// its state arrays again.
  void reset() {
    sim_.reset();
    armed_.clear();
    watched_.clear();
    watch_mask_ = Block{};
    trace_ = nullptr;
    cycle_ = 0;
    first_cycle_ = std::numeric_limits<std::uint64_t>::max();
    last_fault_cycle_ = 0;
    converged_cycle_ = std::numeric_limits<std::uint64_t>::max();
    skipped_cycles_ = 0;
  }

  /// Schedules `f` on one lane.  Throws std::invalid_argument on a bad
  /// lane/net, an SEU whose target is not a DFF output, or a tape rewritten
  /// beyond the fault-overlay-safe optimization level.  A replaying session
  /// takes all its faults before the first step(), since they fix the
  /// cycles it replays: a later arm() throws std::logic_error.
  void arm(unsigned lane, const Fault& f) {
    const Tape& tape = sim_.tape();
    if (lane >= kTotalLanes) {
      throw std::invalid_argument("WideBatchSession::arm: bad lane");
    }
    if (f.net >= tape.net_count()) {
      throw std::invalid_argument("WideBatchSession::arm: net out of range");
    }
    if (f.kind == FaultKind::kSeuFlip && !tape.is_dff_output(f.net)) {
      throw std::invalid_argument(
          "WideBatchSession::arm: SEU target is not a DFF output");
    }
    if (!tape.fault_overlay_safe()) {
      throw std::invalid_argument(
          "WideBatchSession::arm: tape is not fault-overlay safe "
          "(compiled at OptLevel::kFull)");
    }
    if (golden_ && cycle_ > 0) {
      throw std::logic_error("WideBatchSession::arm: session already stepped");
    }
    armed_.push_back({lane, f});
    if (!golden_) return;
    first_cycle_ = std::min(first_cycle_, f.cycle);
    last_fault_cycle_ = std::max(last_fault_cycle_, f.cycle);
  }

  /// Monitors a net (e.g. the parity error flag) on every lane: bit L of
  /// watch_block() latches 1 if lane L ever sees the net high after a
  /// settle.
  void watch(NetId net) { watched_.push_back(sim_.checked_slot(net)); }
  [[nodiscard]] const Block& watch_block() const { return watch_mask_; }

  /// Records each post-settle state into `trace` (one append per step).
  /// Used on the fault-free reference run to capture the golden trace that
  /// replaying sessions later take; pass nullptr to stop.
  void set_trace(GoldenTrace* trace) { trace_ = trace; }

  // Batched streaming surface --------------------------------------------
  /// Drives every lane with the same value (campaign trials share stimulus).
  void set_bus(const Bus& bus, std::int64_t value) {
    sim_.set_bus_all(bus, value);
  }
  /// One clock cycle for all lanes with each lane's overlay applied.
  /// A replaying session throws std::logic_error past the trace's end.
  void step() {
    const std::uint64_t c = cycle_;
    if (golden_) {
      if (c >= golden_->cycles()) {
        throw std::logic_error(
            "WideBatchSession::step: golden trace is shorter than the run");
      }
      if (replayed(c)) {
        for (const Slot s : watched_) {
          if (golden_->get(c, s)) watch_mask_ = Block::ones();
        }
        ++skipped_cycles_;
        ++cycle_;
        return;
      }
      if (c == first_cycle_ && c > 0) {
        // The registers hold what the previous edge clocked in.
        for (const DffSlots& dff : sim_.tape().dffs()) {
          sim_.broadcast_slot(dff.q, golden_->broadcast(c - 1, dff.d));
        }
      }
    }
    pin(c);
    sim_.eval();
    if (trace_ != nullptr) trace_->append(sim_);
    for (const Slot s : watched_) {
      for (unsigned k = 0; k < W; ++k) watch_mask_.w[k] |= sim_.slot_word(s, k);
    }
    sim_.clock_edge();
    strike(c);
    if (golden_ && converged(c)) converged_cycle_ = c + 1;
    ++cycle_;
  }

  /// Reads the first `lanes` lanes of a bus in one pass: per bus bit the
  /// slot is resolved once and its W state words fanned out to the lane
  /// values, instead of `lanes` read_bus calls re-resolving every bit.
  /// This is the batched runners' hot read path (stream_runner.cpp).  A
  /// session with a golden trace starts every lane at the trace's value and
  /// extracts bit by bit only the lanes whose bits differ from it (none
  /// after a replayed cycle).
  void read_bus_all(const Bus& bus, std::int64_t* out, unsigned lanes) const {
    if (bus.bits.empty()) {
      throw std::invalid_argument("WideBatchSession::read_bus_all: empty bus");
    }
    if (lanes == 0 || lanes > kTotalLanes) {
      throw std::invalid_argument("WideBatchSession::read_bus_all: bad lanes");
    }
    if (golden_ && cycle_ > 0) {
      read_diverging(bus, out, lanes);
      return;
    }
    std::fill(out, out + lanes, std::int64_t{0});
    for (std::size_t i = 0; i < bus.bits.size(); ++i) {
      const Slot s = sim_.checked_slot(bus.bits[i]);
      for (unsigned k = 0; k * kWordLanes < lanes; ++k) {
        const std::uint64_t w = sim_.slot_word(s, k);
        const unsigned base = k * kWordLanes;
        const unsigned count = std::min(kWordLanes, lanes - base);
        for (unsigned j = 0; j < count; ++j) {
          out[base + j] |= static_cast<std::int64_t>((w >> j) & 1) << i;
        }
      }
    }
    const int w = bus.width();
    if (w < 64) {
      const std::int64_t sign = std::int64_t{1} << (w - 1);
      const std::int64_t wrap = std::int64_t{1} << w;
      for (unsigned l = 0; l < lanes; ++l) {
        if (out[l] & sign) out[l] -= wrap;
      }
    }
  }

  [[nodiscard]] std::uint64_t cycle() const { return cycle_; }
  [[nodiscard]] Sim& sim() { return sim_; }

  /// Cycles served from the golden trace: before the batch's earliest
  /// fault, plus every cycle after it retired.
  [[nodiscard]] std::uint64_t skipped_cycles() const {
    return skipped_cycles_;
  }
  /// True once the whole batch has matched the golden trace for good (all
  /// strikes delivered, no lane pinned, registers golden); every later
  /// cycle is served from the trace.
  [[nodiscard]] bool retired() const {
    return converged_cycle_ != std::numeric_limits<std::uint64_t>::max();
  }

 private:
  struct Armed {
    unsigned lane;
    Fault fault;
  };

  /// Activates cycle `c`'s pins before its settle.  Stuck forces persist
  /// once applied; glitch forces live for exactly this settle+edge and are
  /// released by strike().
  void pin(std::uint64_t c) {
    for (const Armed& a : armed_) {
      if (a.fault.cycle != c) continue;
      const Block bit = Block::lane_bit(a.lane);
      switch (a.fault.kind) {
        case FaultKind::kGlitch:
          sim_.force(a.fault.net, bit,
                     a.fault.glitch_value ? bit : Block::zeros());
          break;
        case FaultKind::kStuckAt0:
          sim_.force(a.fault.net, bit, Block::zeros());
          break;
        case FaultKind::kStuckAt1:
          sim_.force(a.fault.net, bit, bit);
          break;
        case FaultKind::kSeuFlip:
          break;  // struck after the edge
      }
    }
  }

  /// After cycle `c`'s clock edge: SEUs flip the freshly clocked state and
  /// that cycle's glitches release.
  void strike(std::uint64_t c) {
    for (const Armed& a : armed_) {
      if (a.fault.cycle != c) continue;
      if (a.fault.kind == FaultKind::kSeuFlip) {
        sim_.flip_state(a.fault.net, Block::lane_bit(a.lane));
      } else if (a.fault.kind == FaultKind::kGlitch) {
        sim_.release(a.fault.net, Block::lane_bit(a.lane));
      }
    }
  }

  /// read_bus_all with a trace, after the first step: every lane gets the
  /// bus's golden value after the last edge, then each lane among the
  /// first `lanes` whose bits differ from it is read from the simulator.
  void read_diverging(const Bus& bus, std::int64_t* out,
                      unsigned lanes) const {
    const bool replayed = replayed_last();
    std::int64_t golden = 0;
    Block diff{};
    for (std::size_t i = 0; i < bus.bits.size(); ++i) {
      const Slot s = sim_.checked_slot(bus.bits[i]);
      const bool bit = golden_->after_edge(cycle_ - 1, s);
      if (bit) golden |= std::int64_t{1} << i;
      if (replayed) continue;  // the simulator's state is stale
      const std::uint64_t want = bit ? ~std::uint64_t{0} : 0;
      for (unsigned k = 0; k < W; ++k) diff.w[k] |= sim_.slot_word(s, k) ^ want;
    }
    const int w = bus.width();
    if (w < 64 && (golden & (std::int64_t{1} << (w - 1)))) {
      golden -= std::int64_t{1} << w;
    }
    std::fill(out, out + lanes, golden);
    for (unsigned k = 0; k * kWordLanes < lanes; ++k) {
      const unsigned count = std::min(kWordLanes, lanes - k * kWordLanes);
      std::uint64_t lane_bits =
          count == kWordLanes ? diff.w[k]
                              : diff.w[k] & ((std::uint64_t{1} << count) - 1);
      for (; lane_bits != 0; lane_bits &= lane_bits - 1) {
        const unsigned lane =
            k * kWordLanes + static_cast<unsigned>(std::countr_zero(lane_bits));
        out[lane] = sim_.read_bus(bus, lane);
      }
    }
  }

  /// Whether cycle `c` is served from the golden trace, not simulated.
  [[nodiscard]] bool replayed(std::uint64_t c) const {
    return golden_ && (c < first_cycle_ || c >= converged_cycle_);
  }
  /// Whether the last completed cycle was; before the first step the
  /// simulator holds the reset state.
  [[nodiscard]] bool replayed_last() const {
    return cycle_ > 0 && replayed(cycle_ - 1);
  }

  /// Whether every cycle after `c` matches the trace: all strikes
  /// delivered, no lane pinned (glitches release at their strike cycle, so
  /// past the last fault only stuck forces remain), and every register
  /// golden after the edge -- the combinational state is a function of the
  /// registers and the lane-uniform inputs.
  [[nodiscard]] bool converged(std::uint64_t c) const {
    if (c < last_fault_cycle_ || sim_.any_forced()) return false;
    for (const DffSlots& dff : sim_.tape().dffs()) {
      const std::uint64_t want = golden_->broadcast(c, dff.d);
      for (unsigned k = 0; k < W; ++k) {
        if (sim_.slot_word(dff.q, k) != want) return false;
      }
    }
    return true;
  }

  Sim sim_;
  std::shared_ptr<const GoldenTrace> golden_;  // null: simulate every cycle
  std::vector<Armed> armed_;
  std::vector<Slot> watched_;
  Block watch_mask_{};
  GoldenTrace* trace_ = nullptr;
  std::uint64_t cycle_ = 0;

  std::uint64_t first_cycle_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t last_fault_cycle_ = 0;  // latest armed strike
  /// First cycle of the golden tail after retirement; max() = not retired.
  std::uint64_t converged_cycle_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t skipped_cycles_ = 0;
};

}  // namespace dwt::rtl::compiled
