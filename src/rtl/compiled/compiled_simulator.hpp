// Bit-parallel batch simulator: evaluates a compiled Tape with 64
// independent test vectors packed into one std::uint64_t "lane word" per
// signal slot.  Bit L of every word belongs to lane L, so one pass over the
// instruction tape advances all 64 vectors by one settle -- the machinery
// behind the compiled campaign runner and the rtl-compiled backend.
//
// Semantics match the scalar zero-delay rtl::Simulator lane-for-lane:
//   * eval() settles the combinational cloud (dependency-ordered tape pass);
//   * clock_edge() moves every DFF's settled D word into its Q word
//     (two-phase, race-free);
//   * step() = eval() + clock_edge();
//   * all state resets to 0, constants excepted.
//
// Fault overlays are lane masks: force() pins chosen lanes of a net to
// chosen values during eval (the compiled analogue of FaultInjector's
// settle-with-pins), flip_state() XORs freshly clocked DFF lanes (SEU).
//
// This is the one-word instantiation of the width-templated engine in
// wide_simulator.hpp, kept as a named class so the packed-mask std::uint64_t
// surface of the original simulator survives unchanged; WideSimulator<2>/<4>
// carry 128/256 lanes through the same tape pass.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "rtl/compiled/tape.hpp"
#include "rtl/compiled/wide_simulator.hpp"
#include "rtl/netlist.hpp"

namespace dwt::rtl::compiled {

inline constexpr unsigned kLanes = 64;

class CompiledSimulator : public WideSimulator<1> {
 public:
  using WideSimulator<1>::WideSimulator;

  /// Drives all 64 lanes of a primary input from a packed mask.
  void set_input_mask(NetId net, std::uint64_t lanes) {
    set_input_block(net, blk(lanes));
  }

  /// All 64 lanes of a net, packed (bit L = lane L).
  [[nodiscard]] std::uint64_t lane_mask(NetId net) const {
    return block(net).w[0];
  }

  /// Pins lanes of `net`: wherever `lanes` has a bit set, the net is held at
  /// the corresponding bit of `values` through every subsequent eval() until
  /// release()d.  Pins compose across calls (later calls win on overlap).
  void force(NetId net, std::uint64_t lanes, std::uint64_t values) {
    WideSimulator<1>::force(net, blk(lanes), blk(values));
  }
  /// Removes the pin on the given lanes of `net`.
  void release(NetId net, std::uint64_t lanes) {
    WideSimulator<1>::release(net, blk(lanes));
  }
  /// XORs the given lanes of a DFF output -- the SEU strike.  Call between
  /// clock_edge() and the next eval(); throws if `net` is not a DFF output.
  void flip_state(NetId net, std::uint64_t lanes) {
    WideSimulator<1>::flip_state(net, blk(lanes));
  }

 private:
  [[nodiscard]] static Block blk(std::uint64_t word) {
    Block b;
    b.w[0] = word;
    return b;
  }
};

}  // namespace dwt::rtl::compiled
