// Straight-line native code for a compiled tape.
//
// NativeBlock::build() lowers every instruction of a levelized Tape into a
// flat run of x86-64 machine code operating directly on the WideSimulator's
// slot-major state array (W lane words per slot, the same layout the
// interpreter walks): 64-bit scalar ALU code for W=1, VEX-encoded 128/256-
// bit AVX integer code for W=2/4.  There is no dispatch, no loop and no
// per-instruction call -- the whole settle pass is one function call into
// an mmap'd executable buffer:
//
//     void fn(std::uint64_t* state);   // SysV: state pointer in rdi
//
// The emitted code computes exactly the same word-wise boolean functions as
// WideSimulator::exec<false>, so outputs are byte-identical by
// construction.  Fault overlays (forced lanes) and cone-restricted partial
// ranges are NOT handled here; WideSimulator only enters the native block
// for full-range unforced evals and drops to the switch interpreter
// otherwise.
//
// A second entry point, run_edge(), lowers the clock edge: the portable
// engine's two-phase DFF copy (d -> scratch, scratch -> q) is replaced by a
// single dependency-ordered pass of direct q <- d moves.  A register whose
// d input is another register's q (shift registers, line buffers) is copied
// before that upstream register overwrites its q, which reproduces the
// simultaneous-edge semantics exactly; only registers on a copy *cycle*
// (q's feeding each other's d's in a loop -- not constructible through the
// netlist builder, handled anyway) fall back to a scratch round-trip.  On
// DFF-heavy designs the edge, not the settle, is the step() bottleneck, so
// the native tier lowers both.
//
// build() returns nullptr when the host cannot run the code (non-x86-64,
// missing AVX2 for W>1, W^X mapping refused by the kernel, or a tape too
// large for disp32 addressing) -- callers fall back to the interpreter.
// Blocks are immutable after construction and safe to share across threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "rtl/compiled/tape.hpp"

namespace dwt::rtl::compiled {

class NativeBlock {
 public:
  NativeBlock(const NativeBlock&) = delete;
  NativeBlock& operator=(const NativeBlock&) = delete;
  ~NativeBlock();

  /// Emits the code for `tape` at `words` lane words per slot.  Returns
  /// nullptr when the host or tape is unsupported (see header note).
  [[nodiscard]] static std::shared_ptr<const NativeBlock> build(
      const Tape& tape, unsigned words);

  /// One full settle pass: evaluates every tape instruction in order over
  /// the slot-major state array.  `state` must hold slot_count() * words()
  /// words, laid out exactly as WideSimulator<W>::state_.
  void run(std::uint64_t* state) const { fn_(state); }

  /// One clock edge: q <- d for every tape DFF, with simultaneous-edge
  /// semantics (see header note).  `scratch` must hold at least
  /// dff_count * words() words; it is only touched for registers on a copy
  /// cycle, so callers pass the simulator's existing DFF scratch buffer.
  void run_edge(std::uint64_t* state, std::uint64_t* scratch) const {
    edge_fn_(state, scratch);
  }

  [[nodiscard]] unsigned words() const { return words_; }
  /// Bytes of machine code emitted (excluding mapping round-up) -- a
  /// deterministic function of (tape, words), reported by the bench.
  [[nodiscard]] std::size_t code_size() const { return code_size_; }
  [[nodiscard]] std::size_t instr_count() const { return instr_count_; }

 private:
  using Fn = void (*)(std::uint64_t*);
  using EdgeFn = void (*)(std::uint64_t*, std::uint64_t*);

  NativeBlock(void* map, std::size_t map_size, std::size_t code_size,
              std::size_t edge_offset, unsigned words, std::size_t instr_count)
      : map_(map),
        map_size_(map_size),
        code_size_(code_size),
        words_(words),
        instr_count_(instr_count),
        fn_(reinterpret_cast<Fn>(map)),
        edge_fn_(reinterpret_cast<EdgeFn>(static_cast<std::uint8_t*>(map) +
                                          edge_offset)) {}

  void* map_;
  std::size_t map_size_;
  std::size_t code_size_;
  unsigned words_;
  std::size_t instr_count_;
  Fn fn_;
  EdgeFn edge_fn_;
};

}  // namespace dwt::rtl::compiled
