// Differential-equivalence harness: proves the compiled bit-parallel engine
// bit-exact against the interpreted zero-delay rtl::Simulator.
//
// The harness drives both engines with the same randomized vector streams
// (one stream per lane, from a seeded common::Rng) and compares EVERY net on
// EVERY cycle: the compiled simulator runs all 64 lanes in one pass, while a
// scalar interpreted replica is run per checked lane.  Any divergence is
// reported with the net name, lane and cycle, which makes tape bugs
// immediately attributable.
//
// Both checks accept an optimization level: the tape is rewritten by the
// rtl/compiled/opt pipeline first, and nets the optimizer eliminated are
// skipped (counted in nets_skipped) -- every net the optimized tape still
// materializes must match the interpreter bit-for-bit.
//
// check_fault_equivalence() extends the differential to fault overlays: each
// checked lane draws a random fault (SEU / glitch / stuck-at on a random
// legal target and cycle), which is armed identically in a compiled
// WideBatchSession lane and in an interpreted rtl::FaultInjector replica,
// proving the overlay semantics (settle-with-pins, watch sampling, edge,
// SEU strike) equivalent gate-for-gate -- the property that lets campaigns
// trust fault-overlay-safe optimized tapes.
#pragma once

#include <cstdint>
#include <string>

#include "rtl/compiled/tape.hpp"
#include "rtl/netlist.hpp"

namespace dwt::rtl::compiled {

struct EquivalenceReport {
  bool ok = true;
  std::uint64_t cycles = 0;          ///< cycles simulated
  unsigned lanes_checked = 0;        ///< interpreted replicas compared
  std::uint64_t nets_compared = 0;   ///< net-cycle-lane comparisons made
  std::uint64_t nets_skipped = 0;    ///< eliminated-net comparisons skipped
  std::string mismatch;              ///< first divergence, empty when ok
};

/// Runs `cycles` clock cycles of randomized primary-input vectors through
/// both engines and compares all materialized nets cycle-for-cycle on the
/// first `lanes_to_check` lanes (the compiled engine still evaluates all
/// 64).  Deterministic in `seed`.
[[nodiscard]] EquivalenceReport check_equivalence(
    const Netlist& nl, std::uint64_t cycles, std::uint64_t seed,
    unsigned lanes_to_check = 4, OptLevel level = OptLevel::kNone);

/// Fault-overlay differential: like check_equivalence, but every checked
/// lane additionally carries one random fault, armed identically in both
/// engines.  `level` must be fault-overlay safe (kNone or kSafe).
[[nodiscard]] EquivalenceReport check_fault_equivalence(
    const Netlist& nl, std::uint64_t cycles, std::uint64_t seed,
    unsigned lanes_to_check = 4, OptLevel level = OptLevel::kNone);

}  // namespace dwt::rtl::compiled
