// Fan-out cone index over a compiled tape.
//
// A fault pins or flips exactly one net, so the only tape instructions a
// trial can compute differently from the fault-free run are those in the
// net's transitive fan-out cone -- transitive across clock edges too, since
// a corrupted DFF D propagates through its Q into the next cycle's logic.
// Because the tape is levelized (writers precede readers), that cone is
// covered by one contiguous *interval* of instruction indices, and the
// ConeIndex precomputes that interval for every slot.  Campaigns use the
// intervals only as a static model of their fault schedule (the report's
// `cone` block): a batch's trials are ordered by persistence and strike
// cycle alone, and every batch settles the whole tape, since on the
// pipelined designs the union of a batch's intervals covers all of it.
//
// The index is immutable after build() and carries no pointers back into
// the tape, so one index can be shared (via shared_ptr<const ConeIndex>)
// by every user; the ArtifactCache memoizes it beside the tape it was built
// from.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "rtl/compiled/tape.hpp"

namespace dwt::rtl::compiled {

/// Closed-open interval of tape instruction indices.  Empty (lo == hi) for
/// slots nothing reads -- a fault there can never reach an output.
struct ConeSpan {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;

  [[nodiscard]] std::uint32_t length() const { return hi - lo; }
  [[nodiscard]] bool empty() const { return lo == hi; }
};

class ConeIndex {
 public:
  /// Builds the per-slot fan-out intervals of `tape` by fixpoint iteration:
  /// a reverse sweep folds every instruction's own interval into its input
  /// slots (complete for one cycle, since readers are processed before the
  /// writers that feed them), and a DFF pass folds each Q interval into its
  /// D slot to carry the cone across clock edges; sweeps repeat until no
  /// interval grows.  Feed-forward pipelines converge in a couple of
  /// sweeps.
  [[nodiscard]] static std::shared_ptr<const ConeIndex> build(const Tape& tape);

  /// Fan-out interval of a net on the indexed tape; empty for nets the
  /// optimizer eliminated (forcing them is a no-op, so their cone is too).
  [[nodiscard]] ConeSpan span_of_net(const Tape& tape, NetId net) const {
    const Slot s = tape.slot_of(net);
    return s == kNullSlot ? ConeSpan{} : spans_.at(s);
  }

  /// Instruction count of the indexed tape (the denominator of every cone
  /// fraction).
  [[nodiscard]] std::size_t instr_count() const { return instr_count_; }

  /// Mean span length over all non-empty slots -- the headline "how much of
  /// the tape does an average fault touch" statistic.
  [[nodiscard]] double mean_span_fraction() const;

 private:
  ConeIndex() = default;

  std::vector<ConeSpan> spans_;  // per slot
  std::size_t instr_count_ = 0;
};

}  // namespace dwt::rtl::compiled
