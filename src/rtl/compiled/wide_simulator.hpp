// Width-templated bit-parallel simulation core.
//
// WideSimulator<W> evaluates a compiled Tape with 64*W independent test
// vectors: every signal slot holds a LaneBlock<W> -- W consecutive
// std::uint64_t lane words -- and the instruction kernels run fixed-trip
// loops over the W words, which the compiler unrolls and auto-vectorizes
// (W=4 is one 256-bit AVX2 op or two SSE2 ops per gate).  Lane L of the
// batch lives in word L/64, bit L%64.
//
// Semantics are those of CompiledSimulator (see compiled_simulator.hpp),
// which is now the W=1 instantiation: zero-delay settle over the levelized
// tape, two-phase clock edge, force/flip fault overlays as lane masks --
// here widened to lane *blocks*.  State resets copy the tape's constant
// image (one broadcast per slot), so per-trial resets are a straight memcpy
// rather than a walk over constant slots.
//
// On optimized tapes some nets may be unmaterialized (Tape::materialized()
// == false): observing or driving them throws, but force()/release() on
// them is a silent no-op -- the net was eliminated precisely because
// nothing observable depends on it, so pinning it is a no-op in the
// interpreted engine too.  That keeps fault campaigns' target pools valid
// on kSafe tapes without consulting the optimizer's dead set.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rtl/compiled/exec_tier.hpp"
#include "rtl/compiled/native_block.hpp"
#include "rtl/compiled/tape.hpp"
#include "rtl/netlist.hpp"

namespace dwt::rtl::compiled {

/// Lanes carried by one state word.
inline constexpr unsigned kWordLanes = 64;

/// Minimal cache-line-aligned allocator for the slot-major state arrays.
/// A default std::vector<std::uint64_t> is only 16-byte aligned, so at W=4
/// half of all 32-byte slot accesses straddle a cache line -- the native
/// tier's ymm loads/stores (and the compiler's vectorized interpreter
/// kernels) pay a split-access penalty on every other slot.  64-byte
/// alignment makes every W=2/W=4 slot line-local.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheAlignedAllocator() = default;
  template <typename U>
  explicit CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) noexcept { ::operator delete(p, kAlign); }

  friend bool operator==(const CacheAlignedAllocator&,
                         const CacheAlignedAllocator&) {
    return true;
  }
};

/// State-word storage: slot s, word k at index s * W + k, 64-byte aligned.
using StateVec = std::vector<std::uint64_t, CacheAlignedAllocator<std::uint64_t>>;

/// W consecutive lane words: the per-slot state unit of WideSimulator<W>.
template <unsigned W>
struct LaneBlock {
  static_assert(W == 1 || W == 2 || W == 4,
                "LaneBlock: supported widths are 1, 2 and 4 words");
  std::array<std::uint64_t, W> w{};

  static constexpr unsigned kLaneCount = kWordLanes * W;

  [[nodiscard]] static LaneBlock zeros() { return {}; }
  [[nodiscard]] static LaneBlock ones() {
    LaneBlock b;
    b.w.fill(~std::uint64_t{0});
    return b;
  }
  /// Block with exactly bit `lane` set.
  [[nodiscard]] static LaneBlock lane_bit(unsigned lane) {
    LaneBlock b;
    b.w[lane / kWordLanes] = std::uint64_t{1} << (lane % kWordLanes);
    return b;
  }

  [[nodiscard]] bool get(unsigned lane) const {
    return ((w[lane / kWordLanes] >> (lane % kWordLanes)) & 1) != 0;
  }
  void set(unsigned lane, bool value) {
    const std::uint64_t bit = std::uint64_t{1} << (lane % kWordLanes);
    std::uint64_t& word = w[lane / kWordLanes];
    word = value ? (word | bit) : (word & ~bit);
  }
  [[nodiscard]] bool any() const {
    for (const std::uint64_t word : w) {
      if (word != 0) return true;
    }
    return false;
  }
  LaneBlock& operator|=(const LaneBlock& o) {
    for (unsigned k = 0; k < W; ++k) w[k] |= o.w[k];
    return *this;
  }
  friend bool operator==(const LaneBlock&, const LaneBlock&) = default;
};

template <unsigned W>
class WideSimulator {
 public:
  static constexpr unsigned kWords = W;
  static constexpr unsigned kTotalLanes = kWordLanes * W;
  using Block = LaneBlock<W>;

  /// Compiles `nl` privately (raw tape).  For many simulators over one
  /// design compile once and use the shared-tape ctor.
  explicit WideSimulator(const Netlist& nl) : WideSimulator(compile(nl)) {}

  explicit WideSimulator(std::shared_ptr<const Tape> tape)
      : tape_(std::move(tape)) {
    if (!tape_) {
      throw std::invalid_argument("WideSimulator: null tape");
    }
    const std::size_t n = tape_->slot_count();
    state_.assign(n * W, 0);
    force_keep_.assign(n * W, ~std::uint64_t{0});
    force_val_.assign(n * W, 0);
    forced_.assign(n, 0);
    dff_scratch_.resize(tape_->dffs().size() * W);
    // Slots no instruction writes and no external driver refreshes: their
    // value comes solely from the constant image (kConst cells, and on
    // optimized tapes the outputs of instructions folded to constants).
    // After a release() these must be restored from the image at the next
    // eval() -- nothing else ever rewrites them, whereas the interpreter
    // re-evaluates the still-present cell on the next settle.
    const_src_.assign(n, 1);
    restore_flag_.assign(n, 0);
    for (const Instr& it : tape_->instrs()) {
      const_src_[it.out] = 0;
      if (it.out2 != kNullSlot) const_src_[it.out2] = 0;
    }
    for (Slot s = 0; s < n; ++s) {
      if (const_src_[s] == 0) continue;
      const NetId net = tape_->net_of(s);
      if (tape_->is_primary_input(net) || tape_->is_dff_output(net)) {
        const_src_[s] = 0;
      }
    }
    load_const_image();
  }

  [[nodiscard]] const Tape& tape() const { return *tape_; }

  // Execution tier --------------------------------------------------------
  /// Attaches a pre-built native block (core::ArtifactCache::native_for
  /// hands out the cache-shared one) so whole-tape unforced settles and
  /// clock edges run the JIT'd code.  A null block, or a DWT_EXEC_TIER
  /// override demoting native, leaves the switch interpreter.  Throws if
  /// the block was built for another width or tape.  Tier choice never
  /// changes results: both tiers compute identical words.
  void set_native(std::shared_ptr<const NativeBlock> block) {
    if (block && (block->words() != W ||
                  block->instr_count() != tape_->instrs().size())) {
      throw std::invalid_argument(
          "WideSimulator::set_native: block does not match tape");
    }
    if (block && resolve_exec_tier(ExecTier::kNative, W) != ExecTier::kNative) {
      block.reset();
    }
    native_ = std::move(block);
  }
  [[nodiscard]] ExecTier exec_tier() const {
    return native_ ? ExecTier::kNative : ExecTier::kSwitch;
  }
  /// The attached native block (null unless the native tier is active).
  [[nodiscard]] const std::shared_ptr<const NativeBlock>& native_block()
      const {
    return native_;
  }

  // Input drive -----------------------------------------------------------
  /// Drives one lane of a primary input.
  void set_input(NetId net, unsigned lane, bool value) {
    if (lane >= kTotalLanes) {
      throw std::invalid_argument("WideSimulator::set_input: bad lane");
    }
    const Slot s = input_slot(net);
    const std::uint64_t bit = std::uint64_t{1} << (lane % kWordLanes);
    std::uint64_t& word = state_[s * W + lane / kWordLanes];
    word = value ? (word | bit) : (word & ~bit);
  }
  /// Drives all 64*W lanes of a primary input from a packed block.
  void set_input_block(NetId net, const Block& lanes) {
    const Slot s = input_slot(net);
    for (unsigned k = 0; k < W; ++k) state_[s * W + k] = lanes.w[k];
  }
  /// Drives one lane of an input bus with a signed value (two's complement).
  void set_bus(const Bus& bus, unsigned lane, std::int64_t value) {
    if (bus.bits.empty()) {
      throw std::invalid_argument("WideSimulator::set_bus: empty bus");
    }
    check_bus_fit(bus, value, "WideSimulator::set_bus");
    for (std::size_t i = 0; i < bus.bits.size(); ++i) {
      set_input(bus.bits[i], lane, ((value >> i) & 1) != 0);
    }
  }
  /// Drives every lane of an input bus with the same signed value.
  void set_bus_all(const Bus& bus, std::int64_t value) {
    if (bus.bits.empty()) {
      throw std::invalid_argument("WideSimulator::set_bus_all: empty bus");
    }
    check_bus_fit(bus, value, "WideSimulator::set_bus_all");
    for (std::size_t i = 0; i < bus.bits.size(); ++i) {
      set_input_block(bus.bits[i],
                      ((value >> i) & 1) != 0 ? Block::ones() : Block::zeros());
    }
  }

  // Clocking --------------------------------------------------------------
  void eval() { eval_range(0, tape_->instrs().size()); }

  /// Settles only instructions [lo, hi) of the tape -- the cone-restricted
  /// entry point (see rtl/compiled/cone_session.hpp).  Identical to eval()
  /// when the range spans the whole tape: released constant-image slots are
  /// reloaded and active pins applied regardless of the range, since both
  /// are per-slot overlays rather than instructions.
  void eval_range(std::size_t lo, std::size_t hi) {
    if (!restore_pending_.empty()) {
      // Released constant-source slots: reload the whole slot from the
      // image; apply_forces() below re-pins any lanes still forced.
      const std::vector<std::uint64_t>& img = tape_->const_image();
      for (const Slot rs : restore_pending_) {
        restore_flag_[rs] = 0;
        for (unsigned k = 0; k < W; ++k) state_[rs * W + k] = img[rs];
      }
      restore_pending_.clear();
    }
    std::uint64_t* const s = state_.data();
    const Instr* const tape = tape_->instrs().data();
    if (forced_slots_.empty()) {
      // The native block is a full-tape settle with no overlay hooks: it
      // only runs for unforced whole-range evals.  Cone-restricted ranges
      // and forced evals drop to the interpreter, which computes the same
      // words -- so tier choice never changes results.
      if (native_ && lo == 0 && hi == tape_->instrs().size()) {
        native_->run(s);
        return;
      }
      for (std::size_t i = lo; i < hi; ++i) exec<false>(s, tape[i]);
      return;
    }
    apply_forces();
    for (std::size_t i = lo; i < hi; ++i) exec<true>(s, tape[i]);
  }

  void clock_edge() {
    if (native_) {
      // Single dependency-ordered pass (see native_block.hpp); scratch is
      // only touched for registers on a copy cycle.
      native_->run_edge(state_.data(), dff_scratch_.data());
      return;
    }
    const std::vector<DffSlots>& dffs = tape_->dffs();
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      for (unsigned k = 0; k < W; ++k) {
        dff_scratch_[i * W + k] = state_[dffs[i].d * W + k];
      }
    }
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      for (unsigned k = 0; k < W; ++k) {
        state_[dffs[i].q * W + k] = dff_scratch_[i * W + k];
      }
    }
  }

  void step() {
    eval();
    clock_edge();
    ++cycles_;
  }

  // Observation -----------------------------------------------------------
  [[nodiscard]] bool value(NetId net, unsigned lane) const {
    if (lane >= kTotalLanes) {
      throw std::invalid_argument("WideSimulator::value: bad lane");
    }
    const Slot s = checked_slot(net);
    return ((state_[s * W + lane / kWordLanes] >> (lane % kWordLanes)) & 1) !=
           0;
  }
  /// All 64*W lanes of a net, packed (bit L of word L/64 = lane L).
  [[nodiscard]] Block block(NetId net) const {
    const Slot s = checked_slot(net);
    Block b;
    for (unsigned k = 0; k < W; ++k) b.w[k] = state_[s * W + k];
    return b;
  }
  /// Reads one lane of a bus as a signed two's complement integer.
  [[nodiscard]] std::int64_t read_bus(const Bus& bus, unsigned lane) const {
    if (bus.bits.empty()) {
      throw std::invalid_argument("WideSimulator::read_bus: empty bus");
    }
    if (lane >= kTotalLanes) {
      throw std::invalid_argument("WideSimulator::read_bus: bad lane");
    }
    const unsigned word = lane / kWordLanes;
    const unsigned bit = lane % kWordLanes;
    std::int64_t v = 0;
    for (std::size_t i = 0; i < bus.bits.size(); ++i) {
      const Slot s = checked_slot(bus.bits[i]);
      if ((state_[s * W + word] >> bit) & 1) v |= std::int64_t{1} << i;
    }
    const int w = bus.width();
    if (w < 64 && (v & (std::int64_t{1} << (w - 1)))) {
      v -= std::int64_t{1} << w;
    }
    return v;
  }

  // Slot-level access (cone-restricted sessions) ---------------------------
  /// Raw lane word `k` of slot `s`, no net mapping or range checks beyond
  /// the vector's own.  Cone sessions and golden-trace recording read state
  /// by slot because they walk the tape, not the netlist.
  [[nodiscard]] std::uint64_t slot_word(Slot s, unsigned k) const {
    return state_[static_cast<std::size_t>(s) * W + k];
  }
  /// Overwrites every lane word of slot `s` with `word` -- how a cone
  /// session refreshes an out-of-cone slot from the golden trace (golden
  /// runs are lane-uniform, so one word serves all W).
  void broadcast_slot(Slot s, std::uint64_t word) {
    for (unsigned k = 0; k < W; ++k) {
      state_[static_cast<std::size_t>(s) * W + k] = word;
    }
  }
  /// True while any lane of any slot is pinned by force().
  [[nodiscard]] bool any_forced() const { return !forced_slots_.empty(); }

  // Fault overlay ---------------------------------------------------------
  /// Pins lanes of `net`: wherever `lanes` has a bit set, the net is held at
  /// the corresponding bit of `values` through every subsequent eval() until
  /// release()d.  Pins compose across calls (later calls win on overlap).
  /// A force on an unmaterialized net is a silent no-op (see header note).
  void force(NetId net, const Block& lanes, const Block& values) {
    const Slot s = overlay_slot(net);
    if (s == kNullSlot) return;
    if (!forced_[s]) {
      forced_[s] = 1;
      forced_slots_.push_back(s);
    }
    for (unsigned k = 0; k < W; ++k) {
      force_keep_[s * W + k] &= ~lanes.w[k];
      force_val_[s * W + k] =
          (force_val_[s * W + k] & ~lanes.w[k]) | (values.w[k] & lanes.w[k]);
    }
  }
  /// Removes the pin on the given lanes of `net`.
  void release(NetId net, const Block& lanes) {
    const Slot s = overlay_slot(net);
    if (s == kNullSlot || !forced_[s]) return;
    bool clear = true;
    for (unsigned k = 0; k < W; ++k) {
      force_keep_[s * W + k] |= lanes.w[k];
      force_val_[s * W + k] &= ~lanes.w[k];
      clear = clear && force_keep_[s * W + k] == ~std::uint64_t{0};
    }
    if (const_src_[s] && !restore_flag_[s]) {
      // No instruction recomputes this slot, so the released value would
      // otherwise persist; schedule a constant-image restore for the next
      // eval().  Deferring (rather than restoring here) matches both the
      // interpreter, whose pinned value stays visible until the next
      // settle, and this engine's own lazy semantics on non-folded nets.
      restore_flag_[s] = 1;
      restore_pending_.push_back(s);
    }
    if (clear) {
      forced_[s] = 0;
      for (std::size_t i = 0; i < forced_slots_.size(); ++i) {
        if (forced_slots_[i] == s) {
          forced_slots_[i] = forced_slots_.back();
          forced_slots_.pop_back();
          break;
        }
      }
    }
  }
  /// XORs the given lanes of a DFF output -- the SEU strike.  Call between
  /// clock_edge() and the next eval(); throws if `net` is not a DFF output.
  void flip_state(NetId net, const Block& lanes) {
    if (net >= tape_->net_count() || !tape_->is_dff_output(net)) {
      throw std::invalid_argument(
          "WideSimulator::flip_state: not a DFF output");
    }
    const Slot s = tape_->slot_of(net);
    for (unsigned k = 0; k < W; ++k) state_[s * W + k] ^= lanes.w[k];
  }

  /// Clears all state back to power-on zero: one copy of the tape's
  /// constant image, no per-slot bookkeeping.
  void reset() {
    load_const_image();
    for (const Slot s : restore_pending_) restore_flag_[s] = 0;
    restore_pending_.clear();
    cycles_ = 0;
  }

  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

 private:
  void load_const_image() {
    const std::vector<std::uint64_t>& img = tape_->const_image();
    if constexpr (W == 1) {
      std::copy(img.begin(), img.end(), state_.begin());
    } else {
      for (std::size_t s = 0; s < img.size(); ++s) {
        for (unsigned k = 0; k < W; ++k) state_[s * W + k] = img[s];
      }
    }
  }

  /// One instruction over all W words.  Results are computed into locals
  /// before the store so the per-word loops stay dependence-free.
  template <bool Forced>
  void exec(std::uint64_t* const s, const Instr& it) {
    const std::uint64_t* const a = s + std::size_t{it.a} * W;
    const std::uint64_t* const b = s + std::size_t{it.b} * W;
    const std::uint64_t* const c = s + std::size_t{it.c} * W;
    std::uint64_t* const o = s + std::size_t{it.out} * W;
    std::uint64_t v[W] = {};  // every case overwrites; init keeps -Werror quiet
    switch (it.op) {
      case Op::kNot:
        for (unsigned k = 0; k < W; ++k) v[k] = ~a[k];
        break;
      case Op::kAnd:
        for (unsigned k = 0; k < W; ++k) v[k] = a[k] & b[k];
        break;
      case Op::kOr:
        for (unsigned k = 0; k < W; ++k) v[k] = a[k] | b[k];
        break;
      case Op::kXor:
        for (unsigned k = 0; k < W; ++k) v[k] = a[k] ^ b[k];
        break;
      case Op::kMux:
        for (unsigned k = 0; k < W; ++k) v[k] = (c[k] & b[k]) | (~c[k] & a[k]);
        break;
      case Op::kAddSum:
        for (unsigned k = 0; k < W; ++k) v[k] = a[k] ^ b[k] ^ c[k];
        break;
      case Op::kAddCarry:
        for (unsigned k = 0; k < W; ++k) {
          v[k] = (a[k] & b[k]) | (c[k] & (a[k] ^ b[k]));
        }
        break;
      case Op::kFullAdd: {
        std::uint64_t v2[W];
        for (unsigned k = 0; k < W; ++k) {
          const std::uint64_t ax = a[k], bx = b[k], cx = c[k];
          v[k] = ax ^ bx ^ cx;
          v2[k] = (ax & bx) | (cx & (ax ^ bx));
        }
        std::uint64_t* const o2 = s + std::size_t{it.out2} * W;
        if constexpr (Forced) {
          if (forced_[it.out2]) {
            for (unsigned k = 0; k < W; ++k) {
              v2[k] = (v2[k] & force_keep_[it.out2 * W + k]) |
                      force_val_[it.out2 * W + k];
            }
          }
        }
        for (unsigned k = 0; k < W; ++k) o2[k] = v2[k];
        break;
      }
    }
    if constexpr (Forced) {
      if (forced_[it.out]) {
        for (unsigned k = 0; k < W; ++k) {
          v[k] =
              (v[k] & force_keep_[it.out * W + k]) | force_val_[it.out * W + k];
        }
      }
    }
    for (unsigned k = 0; k < W; ++k) o[k] = v[k];
  }

  void apply_forces() {
    // Source slots (primary inputs, DFF outputs, constants) are never
    // written by tape instructions; pin them up front.  Instruction outputs
    // are re-pinned as they are computed, inside exec<true>().
    for (const Slot s : forced_slots_) {
      for (unsigned k = 0; k < W; ++k) {
        state_[s * W + k] =
            (state_[s * W + k] & force_keep_[s * W + k]) | force_val_[s * W + k];
      }
    }
  }

  [[nodiscard]] Slot checked_slot(NetId net) const {
    if (net >= tape_->net_count()) {
      throw std::invalid_argument("WideSimulator: net out of range");
    }
    const Slot s = tape_->slot_of(net);
    if (s == kNullSlot) {
      throw std::invalid_argument(
          "WideSimulator: net was eliminated by the tape optimizer");
    }
    return s;
  }
  [[nodiscard]] Slot input_slot(NetId net) const {
    const Slot s = checked_slot(net);
    if (!tape_->is_primary_input(net)) {
      throw std::invalid_argument("WideSimulator: not a primary input");
    }
    return s;
  }
  /// Slot for force/release: range-checks the net but maps eliminated nets
  /// to kNullSlot (overlay no-op) instead of throwing.
  [[nodiscard]] Slot overlay_slot(NetId net) const {
    if (net >= tape_->net_count()) {
      throw std::invalid_argument("WideSimulator: net out of range");
    }
    return tape_->slot_of(net);
  }
  static void check_bus_fit(const Bus& bus, std::int64_t value,
                            const char* who) {
    const int w = bus.width();
    if (w < 64) {
      // Two's complement fit check, same contract as Simulator::set_bus.
      const std::int64_t hi = value >> (w - 1);
      if (hi != 0 && hi != -1) {
        throw std::invalid_argument(std::string(who) +
                                    ": value does not fit bus");
      }
    }
  }

  std::shared_ptr<const Tape> tape_;
  std::shared_ptr<const NativeBlock> native_;  // null: switch interpreter
  StateVec state_;                         // slot-major, W words per slot
  std::vector<std::uint64_t> force_keep_;  // per word: ~forced-lanes mask
  std::vector<std::uint64_t> force_val_;   // per word: pinned values
  std::vector<std::uint8_t> forced_;       // per slot flag
  std::vector<Slot> forced_slots_;         // slots with any active pin
  std::vector<std::uint8_t> const_src_;    // slot fed only by const_image()
  std::vector<Slot> restore_pending_;      // const slots to reload at eval()
  std::vector<std::uint8_t> restore_flag_;  // per slot: in restore_pending_
  StateVec dff_scratch_;
  std::uint64_t cycles_ = 0;
};

}  // namespace dwt::rtl::compiled
