// One-time netlist compiler for the bit-parallel simulation engine.
//
// compile() topologically levelizes a Netlist into a flat instruction tape:
// every net is assigned a dense *slot* (constants, then primary inputs, then
// DFF outputs, then combinational outputs in evaluation order), and every
// combinational cell becomes one fixed-width instruction over those slots.
// A simulator evaluates the tape once per clock cycle with 64*W independent
// test vectors packed into one lane block per slot, so a single linear pass
// over the tape simulates a whole batch -- the classic bit-parallel
// (PPSFP-style) speedup over the scalar rtl::Simulator.
//
// A raw tape mirrors the netlist one instruction per combinational cell.
// The optimizer passes in rtl/compiled/opt rewrite tapes (constant folding,
// dead-slot elimination, full-adder fusion, slot renumbering); an optimized
// tape computes bit-identical values on every *materialized* net with fewer
// instructions.  Tape::level()/opt_stats() record what was applied.
//
// The tape is immutable after compile()/optimize() and carries no pointers
// back into the source Netlist, so one compiled tape can be shared (via
// std::shared_ptr<const Tape>) by many simulator instances across threads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "rtl/netlist.hpp"

namespace dwt::rtl::compiled {

namespace opt {
class TapeRewriter;
}  // namespace opt

using Slot = std::uint32_t;
inline constexpr Slot kNullSlot = 0xFFFFFFFFu;

/// Tape opcodes: the combinational subset of CellKind plus the fused
/// macro-ops the optimizer emits.  Constants are not instructions -- their
/// slots are pre-filled from the tape's constant image and never rewritten.
enum class Op : std::uint8_t {
  kNot,       ///< out = ~a
  kAnd,       ///< out = a & b
  kOr,        ///< out = a | b
  kXor,       ///< out = a ^ b
  kMux,       ///< out = (c & b) | (~c & a)
  kAddSum,    ///< out = a ^ b ^ c
  kAddCarry,  ///< out = (a & b) | (c & (a ^ b))
  kFullAdd,   ///< out = a ^ b ^ c,  out2 = (a & b) | (c & (a ^ b))
};

struct Instr {
  Slot a = kNullSlot;
  Slot b = kNullSlot;
  Slot c = kNullSlot;
  Slot out = kNullSlot;
  Slot out2 = kNullSlot;  ///< second output of macro-ops (kFullAdd carry)
  Op op = Op::kNot;
};

/// (Q, D) slot pair of one flip-flop, in cell-creation order.
struct DffSlots {
  Slot q = kNullSlot;
  Slot d = kNullSlot;
};

/// How far the optimizer may rewrite a tape.
enum class OptLevel : std::uint8_t {
  kNone = 0,  ///< raw tape, one instruction per combinational cell
  /// Fault-overlay-safe passes: absorbing-constant folding (results
  /// insensitive to every forceable input), dead-slot elimination,
  /// full-adder fusion, slot renumbering.  Bit-exact against the
  /// interpreted engine even with per-lane force/SEU overlays applied.
  kSafe = 1,
  /// Adds full constant folding and copy propagation (slot aliasing).
  /// Bit-exact fault-free; force overlays on folded/aliased nets would not
  /// propagate as the netlist dictates, so fault sessions reject it.
  kFull = 2,
};

[[nodiscard]] const char* to_string(OptLevel level);

/// What the optimizer did to a tape (zeros on a raw tape).
struct OptStats {
  std::size_t instrs_before = 0;
  std::size_t instrs_after = 0;
  std::size_t slots_before = 0;
  std::size_t slots_after = 0;
  std::size_t folded = 0;        ///< instructions folded to constant slots
  std::size_t aliased = 0;       ///< nets redirected onto an existing slot
  std::size_t dead_removed = 0;  ///< dead instructions eliminated
  std::size_t fused_pairs = 0;   ///< kAddSum/kAddCarry pairs fused
};

class Tape {
 public:
  [[nodiscard]] std::size_t slot_count() const { return const_image_.size(); }
  [[nodiscard]] std::size_t net_count() const { return slot_of_net_.size(); }
  [[nodiscard]] const std::vector<Instr>& instrs() const { return instrs_; }
  [[nodiscard]] const std::vector<DffSlots>& dffs() const { return dffs_; }

  /// Slot of a net; kNullSlot when the optimizer eliminated the net (its
  /// value can no longer be observed -- possible only on optimized tapes).
  [[nodiscard]] Slot slot_of(NetId net) const { return slot_of_net_.at(net); }
  /// A net whose value the tape still carries.  On a raw tape every net is
  /// materialized; optimization may drop dead nets.
  [[nodiscard]] bool materialized(NetId net) const {
    return slot_of_net_.at(net) != kNullSlot;
  }
  /// One net holding the slot's value (aliasing can map several nets onto
  /// one slot; this returns the slot's original occupant).
  [[nodiscard]] NetId net_of(Slot slot) const { return net_of_slot_.at(slot); }

  [[nodiscard]] bool is_primary_input(NetId net) const {
    return pi_flag_.at(net) != 0;
  }
  [[nodiscard]] bool is_dff_output(NetId net) const {
    return dff_q_flag_.at(net) != 0;
  }

  /// Power-on lane image, one word per slot: ~0 for constant-1 slots
  /// (kConst1 cells and instructions folded to 1), 0 everywhere else.
  /// Simulator resets are a straight copy/broadcast of this image.
  [[nodiscard]] const std::vector<std::uint64_t>& const_image() const {
    return const_image_;
  }

  /// Longest combinational path in instructions (levelization depth).
  [[nodiscard]] std::size_t depth() const { return depth_; }

  /// Optimization level this tape was rewritten at (kNone for raw tapes).
  [[nodiscard]] OptLevel level() const { return level_; }
  [[nodiscard]] const OptStats& opt_stats() const { return opt_stats_; }

  /// Whether per-lane force/flip overlays on arbitrary nets behave exactly
  /// as on the interpreted netlist.  True for kNone/kSafe tapes; kFull
  /// folding redirects nets, so fault sessions must refuse such tapes.
  [[nodiscard]] bool fault_overlay_safe() const {
    return level_ != OptLevel::kFull;
  }

 private:
  friend std::shared_ptr<const Tape> compile(const Netlist& nl);
  friend class opt::TapeRewriter;

  std::vector<Instr> instrs_;
  std::vector<DffSlots> dffs_;
  std::vector<Slot> slot_of_net_;       // NetId -> slot (kNullSlot = dropped)
  std::vector<NetId> net_of_slot_;      // slot -> NetId
  std::vector<std::uint8_t> pi_flag_;   // per NetId
  std::vector<std::uint8_t> dff_q_flag_;  // per NetId
  std::vector<std::uint8_t> po_flag_;   // per NetId; dead-slot pass roots
  std::vector<std::uint64_t> const_image_;  // per slot: 0 or ~0
  std::size_t depth_ = 0;
  OptLevel level_ = OptLevel::kNone;
  OptStats opt_stats_;
};

/// Levelizes `nl` into a raw tape.  Instruction order follows
/// Netlist::topo_order(), so evaluation is dependency-safe; output slots are
/// assigned in that same order, making the inner loop's writes sequential.
[[nodiscard]] std::shared_ptr<const Tape> compile(const Netlist& nl);

/// compile() + the optimizer pipeline at `level` (see rtl/compiled/opt).
[[nodiscard]] std::shared_ptr<const Tape> compile(const Netlist& nl,
                                                  OptLevel level);

}  // namespace dwt::rtl::compiled
