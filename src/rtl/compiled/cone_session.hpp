// Cone-restricted batched fault session: the incremental counterpart of
// WideBatchSession (batch_fault.hpp).
//
// A batch of fault trials only ever diverges from the fault-free run inside
// the union of its faults' fan-out cones (cone_index.hpp), so each cycle
// this session executes just that contiguous tape interval and takes every
// other value from the campaign's recorded GoldenTrace:
//
//   * cycles before the earliest armed fault are skipped outright -- the
//     whole state is golden, so watches and bus reads are served from the
//     trace;
//   * at activation, live DFF outputs are seeded with their golden
//     post-edge values;
//   * each active cycle, interval inputs computed outside the interval
//     (the "frontier") and glitch/stuck fault slots are refreshed from the
//     trace before the interval settles, and non-live DFF D slots before
//     the (full) clock edge, so the edge clocks golden values into
//     untouched registers;
//   * once every armed fault has struck and any remaining force overlay is
//     provably a no-op, each post-edge state is compared (live DFF outputs
//     only -- they fully determine the next cycle under the batch's
//     lane-uniform stimulus) against the golden trace; the first match
//     retires the batch, and the remaining cycles are served from the trace
//     like the pre-fault prefix.  Transient faults (SEUs, glitches) release
//     their forces and drain out of the pipeline in a handful of cycles, so
//     on long streams most of a transient batch's tail is never simulated
//     at all.  Stuck-at forces persist, but a batch can still retire once
//     the golden trace itself holds every stuck slot at its forced value
//     for the rest of the run (the "stuck tail", precomputed at prepare()):
//     from there the force pins what the circuit would compute anyway, so
//     golden live registers again imply a golden future.
//
// "Live" slots -- interval outputs, fault slots, and DFF outputs reachable
// from them through clock edges -- are the only slots whose simulator state
// is maintained; everything else is golden by construction, which is what
// makes the restriction exact rather than approximate: a cone session must
// produce bit-identical watch masks and bus reads to the full-tape session
// for every lane (tests/rtl/test_cone_sim.cpp holds it to that).
//
// The session shares the immutable ConeIndex and GoldenTrace across a
// campaign; per-session cost is the live/frontier bookkeeping, sized by the
// union interval rather than the tape.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "rtl/compiled/batch_fault.hpp"
#include "rtl/compiled/cone_index.hpp"
#include "rtl/compiled/wide_simulator.hpp"
#include "rtl/fault.hpp"

namespace dwt::rtl::compiled {

template <unsigned W>
class ConeBatchSession {
 public:
  using Sim = WideSimulator<W>;
  using Block = typename Sim::Block;
  static constexpr unsigned kTotalLanes = Sim::kTotalLanes;

  ConeBatchSession(std::shared_ptr<const Tape> tape,
                   std::shared_ptr<const ConeIndex> cone,
                   std::shared_ptr<const GoldenTrace> trace)
      : sim_(std::move(tape)), cone_(std::move(cone)), trace_(std::move(trace)) {
    if (!cone_ || !trace_) {
      throw std::invalid_argument("ConeBatchSession: null cone index or trace");
    }
    if (cone_->slot_count() != sim_.tape().slot_count() ||
        cone_->instr_count() != sim_.tape().instrs().size() ||
        trace_->slot_count() != sim_.tape().slot_count()) {
      throw std::invalid_argument(
          "ConeBatchSession: cone index / trace built from a different tape");
    }
  }

  /// Schedules `f` on one lane -- same contract and validation as
  /// WideBatchSession::arm, plus: all faults must be armed before the first
  /// step(), since the union interval and live set are frozen then.
  void arm(unsigned lane, const Fault& f) {
    if (prepared_) {
      throw std::logic_error("ConeBatchSession::arm: session already stepped");
    }
    schedule_.arm(sim_.tape(), lane, f);
  }

  /// Monitors a net on every lane, exactly like WideBatchSession::watch.
  /// Golden cycles contribute through the trace, so the latched mask is
  /// bit-identical to the full session's.
  void watch(NetId net) {
    if (net >= sim_.tape().net_count()) {
      throw std::invalid_argument("ConeBatchSession::watch: net out of range");
    }
    const Slot s = sim_.tape().slot_of(net);
    if (s == kNullSlot) {
      throw std::invalid_argument(
          "ConeBatchSession::watch: net was eliminated by the tape optimizer");
    }
    watched_.push_back(net);
    watched_slots_.push_back(s);
  }
  [[nodiscard]] const Block& watch_block() const { return watch_mask_; }

  // Batched streaming surface (mirrors WideBatchSession) ------------------
  void set_bus(const Bus& bus, std::int64_t value) {
    sim_.set_bus_all(bus, value);
  }

  void step() {
    if (!prepared_) prepare();
    const std::uint64_t c = cycle_;
    if (c >= trace_->cycles()) {
      throw std::logic_error(
          "ConeBatchSession::step: golden trace is shorter than the run");
    }
    if (c < first_cycle_ || c >= converged_cycle_) {
      // Entirely golden cycle: nothing in the batch has struck yet (or
      // every lane has already reconverged to the golden state), so the
      // tape is skipped and observations come straight from the trace.
      for (const Slot s : watched_slots_) {
        if (trace_->get(c, s)) watch_mask_ = Block::ones();
      }
      ++cycle_;
      ++skipped_cycles_;
      return;
    }
    if (c == first_cycle_ && c > 0) {
      // Activation: live DFF outputs hold the golden values the previous
      // edge clocked in, i.e. their D slots' post-settle trace of c-1.
      for (const Slot q : live_q_slots_) {
        sim_.broadcast_slot(q, trace_->broadcast(c - 1, cone_->d_of_q(q)));
      }
    }
    schedule_.pin(sim_, c);
    // Golden refresh before the settle: frontier slots are computed by
    // instructions the interval never executes, and forced fault slots may
    // hold a stale released value when their writer lies outside the
    // interval (unforced lanes must read golden; eval re-pins the forced
    // ones).
    for (const Slot s : frontier_) {
      sim_.broadcast_slot(s, trace_->broadcast(c, s));
    }
    for (const Slot s : refresh_fault_slots_) {
      sim_.broadcast_slot(s, trace_->broadcast(c, s));
    }
    sim_.eval_range(interval_.lo, interval_.hi);
    executed_instrs_ += interval_.length();
    for (std::size_t i = 0; i < watched_.size(); ++i) {
      const Slot s = watched_slots_[i];
      if (live_[s]) {
        watch_mask_ |= sim_.block(watched_[i]);
      } else if (trace_->get(c, s)) {
        watch_mask_ = Block::ones();
      }
    }
    // The edge runs in full, so every register -- live or not -- clocks the
    // right value; non-live D slots are golden-refreshed first since the
    // interval never computed them.
    for (const Slot d : nonlive_d_slots_) {
      sim_.broadcast_slot(d, trace_->broadcast(c, d));
    }
    sim_.clock_edge();
    schedule_.strike(sim_, c);
    // Reconvergence: with all strikes delivered and every remaining pin a
    // no-op, golden live DFF outputs after the edge mean golden everything
    // from here on (the combinational state is a function of registers and
    // the lane-uniform inputs), so the remaining cycles can be served from
    // the trace.  Glitches release at their strike cycle, so past
    // last_fault_cycle_ the only persistent forces are stuck-ats; those are
    // no-ops from stuck_tail_cycle_ on, where the golden trace itself holds
    // each stuck slot at its forced value for the remainder of the run.
    if (c >= last_fault_cycle_ &&
        (!sim_.any_forced() || c + 1 >= stuck_tail_cycle_)) {
      bool golden = true;
      for (const Slot q : live_q_slots_) {
        const std::uint64_t want = trace_->broadcast(c, cone_->d_of_q(q));
        for (unsigned k = 0; k < W; ++k) {
          if (sim_.slot_word(q, k) != want) {
            golden = false;
            break;
          }
        }
        if (!golden) break;
      }
      if (golden) converged_cycle_ = c + 1;
    }
    ++cycle_;
  }

  [[nodiscard]] std::int64_t read_bus(const Bus& bus, unsigned lane) const {
    if (bus.bits.empty()) {
      throw std::invalid_argument("ConeBatchSession::read_bus: empty bus");
    }
    if (lane >= kTotalLanes) {
      throw std::invalid_argument("ConeBatchSession::read_bus: bad lane");
    }
    if (cycle_ == 0) return sim_.read_bus(bus, lane);  // reset state
    const std::uint64_t c = cycle_ - 1;  // last completed cycle
    const bool active = cycle_ > first_cycle_ && c < converged_cycle_;
    std::int64_t v = 0;
    for (std::size_t i = 0; i < bus.bits.size(); ++i) {
      const NetId net = bus.bits[i];
      if (net >= sim_.tape().net_count()) {
        throw std::invalid_argument("ConeBatchSession::read_bus: bad net");
      }
      const Slot s = sim_.tape().slot_of(net);
      if (s == kNullSlot) {
        throw std::invalid_argument(
            "ConeBatchSession::read_bus: net was eliminated by the optimizer");
      }
      bool bit;
      if (active && live_[s]) {
        bit = ((sim_.slot_word(s, lane / kWordLanes) >> (lane % kWordLanes)) &
               1) != 0;
      } else {
        // Golden post-step value: a DFF output reads its D slot's trace
        // (the edge already clocked it), anything else its own post-settle
        // trace of cycle c.
        const Slot d = cone_->d_of_q(s);
        bit = trace_->get(c, d != kNullSlot ? d : s);
      }
      if (bit) v |= std::int64_t{1} << i;
    }
    const int w = bus.width();
    if (w < 64 && (v & (std::int64_t{1} << (w - 1)))) {
      v -= std::int64_t{1} << w;
    }
    return v;
  }

  /// Bulk counterpart of read_bus, same contract as
  /// WideBatchSession::read_bus_all: one slot resolution per bus bit.
  /// Golden cycles (pre-fault, post-retirement, or non-live slots) fan the
  /// trace bit out to every lane instead of touching simulator state.
  void read_bus_all(const Bus& bus, std::int64_t* out, unsigned lanes) const {
    if (bus.bits.empty()) {
      throw std::invalid_argument("ConeBatchSession::read_bus_all: empty bus");
    }
    if (lanes == 0 || lanes > kTotalLanes) {
      throw std::invalid_argument("ConeBatchSession::read_bus_all: bad lanes");
    }
    if (cycle_ == 0) {  // reset state, before any step
      for (unsigned l = 0; l < lanes; ++l) out[l] = sim_.read_bus(bus, l);
      return;
    }
    const std::uint64_t c = cycle_ - 1;  // last completed cycle
    const bool active = cycle_ > first_cycle_ && c < converged_cycle_;
    const Tape& tape = sim_.tape();
    // Golden (non-live) bits are lane-uniform, so they accumulate into one
    // scalar fanned out once at the end; only live bits walk the simulator
    // words.  On fully golden cycles the whole read is one fill.
    std::int64_t golden_bits = 0;
    bool any_live = false;
    for (std::size_t i = 0; i < bus.bits.size(); ++i) {
      const NetId net = bus.bits[i];
      if (net >= tape.net_count()) {
        throw std::invalid_argument(
            "ConeBatchSession::read_bus_all: net out of range");
      }
      const Slot s = tape.slot_of(net);
      if (s == kNullSlot) {
        throw std::invalid_argument(
            "ConeBatchSession::read_bus_all: net was eliminated by the "
            "optimizer");
      }
      if (active && live_[s]) {
        if (!any_live) {
          any_live = true;
          std::fill(out, out + lanes, std::int64_t{0});
        }
        for (unsigned k = 0; k * kWordLanes < lanes; ++k) {
          const std::uint64_t w = sim_.slot_word(s, k);
          const unsigned base = k * kWordLanes;
          const unsigned count = std::min(kWordLanes, lanes - base);
          for (unsigned j = 0; j < count; ++j) {
            out[base + j] |= static_cast<std::int64_t>((w >> j) & 1) << i;
          }
        }
      } else {
        const Slot d = cone_->d_of_q(s);
        if (trace_->get(c, d != kNullSlot ? d : s)) {
          golden_bits |= std::int64_t{1} << i;
        }
      }
    }
    if (!any_live) {
      WideBatchSession<W>::sign_extend_lanes(bus, &golden_bits, 1);
      std::fill(out, out + lanes, golden_bits);
      return;
    }
    if (golden_bits != 0) {
      for (unsigned l = 0; l < lanes; ++l) out[l] |= golden_bits;
    }
    WideBatchSession<W>::sign_extend_lanes(bus, out, lanes);
  }

  [[nodiscard]] std::uint64_t cycle() const { return cycle_; }
  [[nodiscard]] Sim& sim() { return sim_; }

  // Restriction statistics -------------------------------------------------
  /// Tape instructions actually executed so far.
  [[nodiscard]] std::uint64_t executed_instructions() const {
    return executed_instrs_;
  }
  /// Instructions a full-tape session would have executed over the same
  /// cycles.
  [[nodiscard]] std::uint64_t full_instructions() const {
    return cycle_ * static_cast<std::uint64_t>(cone_->instr_count());
  }
  /// Cycles skipped entirely: before the batch's earliest fault, plus
  /// every cycle after the batch reconverged to the golden state.
  [[nodiscard]] std::uint64_t skipped_cycles() const {
    return skipped_cycles_;
  }
  /// True once the whole batch has reconverged to the golden state (all
  /// strikes delivered, every remaining force a provable no-op, live
  /// registers golden); every later cycle is trace-served.
  [[nodiscard]] bool retired() const {
    return converged_cycle_ != std::numeric_limits<std::uint64_t>::max();
  }

 private:
  /// Freezes the union interval, live set, frontier and refresh lists from
  /// the armed faults.  Runs once, on the first step().
  void prepare() {
    prepared_ = true;
    const Tape& tape = sim_.tape();
    live_.assign(tape.slot_count(), 0);
    for (const auto& a : schedule_.armed()) {
      const ConeSpan span = cone_->span_of_net(tape, a.fault.net);
      if (!span.empty()) {
        if (interval_.empty()) {
          interval_ = span;
        } else {
          interval_.lo = std::min(interval_.lo, span.lo);
          interval_.hi = std::max(interval_.hi, span.hi);
        }
      }
      first_cycle_ = std::min(first_cycle_, a.fault.cycle);
      last_fault_cycle_ = std::max(last_fault_cycle_, a.fault.cycle);
      const Slot s = tape.slot_of(a.fault.net);
      if (s != kNullSlot) live_[s] = 1;
    }

    const std::vector<Instr>& instrs = tape.instrs();
    std::vector<std::uint8_t> interval_out(tape.slot_count(), 0);
    for (std::uint32_t i = interval_.lo; i < interval_.hi; ++i) {
      live_[instrs[i].out] = 1;
      interval_out[instrs[i].out] = 1;
      if (instrs[i].out2 != kNullSlot) {
        live_[instrs[i].out2] = 1;
        interval_out[instrs[i].out2] = 1;
      }
    }
    // Forced (glitch/stuck) slots whose value nothing in the session ever
    // recomputes -- writer outside the interval, not a register output --
    // hold stale data on unforced lanes (and before/after the force is
    // active); those, and only those, are golden-refreshed each cycle.
    // Slots the interval computes or the edge writes MUST NOT be refreshed:
    // they carry other lanes' diverged values, which a broadcast would
    // destroy.
    for (const auto& a : schedule_.armed()) {
      const Slot s = tape.slot_of(a.fault.net);
      if (s == kNullSlot || a.fault.kind == FaultKind::kSeuFlip) continue;
      if (!interval_out[s] && cone_->d_of_q(s) == kNullSlot) {
        refresh_fault_slots_.push_back(s);
      }
    }
    std::sort(refresh_fault_slots_.begin(), refresh_fault_slots_.end());
    refresh_fault_slots_.erase(
        std::unique(refresh_fault_slots_.begin(), refresh_fault_slots_.end()),
        refresh_fault_slots_.end());
    // Stuck tail: the earliest cycle from which every stuck force agrees
    // with the golden trace for the rest of the run.  From there a stuck
    // pin only re-asserts what the fault-free circuit computes, so the
    // batch may retire despite the active forces.  A stuck net without a
    // tape slot cannot be checked against the trace, so it conservatively
    // pins the tail to the end of the run (such a batch never retires
    // early, exactly as before).
    for (const auto& a : schedule_.armed()) {
      if (a.fault.kind != FaultKind::kStuckAt0 &&
          a.fault.kind != FaultKind::kStuckAt1) {
        continue;
      }
      const Slot s = tape.slot_of(a.fault.net);
      std::uint64_t tail = trace_->cycles();
      if (s != kNullSlot) {
        const bool want = a.fault.kind == FaultKind::kStuckAt1;
        while (tail > 0 && trace_->get(tail - 1, s) == want) --tail;
      }
      stuck_tail_cycle_ = std::max(stuck_tail_cycle_, tail);
    }
    // Close over clock edges: a live D makes its Q live next cycle.
    bool changed = true;
    while (changed) {
      changed = false;
      for (const DffSlots& dff : tape.dffs()) {
        if (live_[dff.d] && !live_[dff.q]) {
          live_[dff.q] = 1;
          changed = true;
        }
      }
    }
    for (const DffSlots& dff : tape.dffs()) {
      if (live_[dff.q]) live_q_slots_.push_back(dff.q);
      if (!live_[dff.d]) nonlive_d_slots_.push_back(dff.d);
    }
    // Frontier: interval inputs nothing in the interval computes -- golden
    // by construction, refreshed from the trace each active cycle.  Primary
    // inputs are driven externally and skipped.
    std::vector<std::uint8_t> seen(tape.slot_count(), 0);
    const auto consider = [&](Slot s) {
      if (s == kNullSlot || live_[s] || seen[s]) return;
      seen[s] = 1;
      if (tape.is_primary_input(tape.net_of(s))) return;
      frontier_.push_back(s);
    };
    for (std::uint32_t i = interval_.lo; i < interval_.hi; ++i) {
      consider(instrs[i].a);
      consider(instrs[i].b);
      consider(instrs[i].c);
    }
  }

  Sim sim_;
  std::shared_ptr<const ConeIndex> cone_;
  std::shared_ptr<const GoldenTrace> trace_;
  FaultSchedule<W> schedule_;
  std::vector<NetId> watched_;
  std::vector<Slot> watched_slots_;
  Block watch_mask_{};
  std::uint64_t cycle_ = 0;

  bool prepared_ = false;
  ConeSpan interval_{};  // union of armed fault cones
  std::uint64_t first_cycle_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t last_fault_cycle_ = 0;  // latest armed strike
  /// First cycle from which every stuck force tracks the golden trace to
  /// the end of the run (0 when the batch has no stuck-at faults).
  std::uint64_t stuck_tail_cycle_ = 0;
  /// First cycle of the golden tail after reconvergence; max() = not (yet)
  /// retired.
  std::uint64_t converged_cycle_ = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint8_t> live_;       // per slot: state maintained in sim_
  std::vector<Slot> live_q_slots_;       // live DFF outputs (activation init)
  std::vector<Slot> nonlive_d_slots_;    // golden-refreshed before each edge
  std::vector<Slot> frontier_;           // golden-refreshed before each settle
  std::vector<Slot> refresh_fault_slots_;  // glitch/stuck slots, deduped
  std::uint64_t executed_instrs_ = 0;
  std::uint64_t skipped_cycles_ = 0;
};

}  // namespace dwt::rtl::compiled
