#include "rtl/compiled/cone_index.hpp"

#include <limits>
#include <stdexcept>

namespace dwt::rtl::compiled {
namespace {

/// Grows `span` to cover `other`; returns true when it grew.  Spans start
/// as the canonical empty {0, 0}; growing an empty span adopts the other
/// span outright.
bool grow(ConeSpan& span, const ConeSpan& other) {
  if (other.empty()) return false;
  if (span.empty()) {
    span = other;
    return true;
  }
  bool grew = false;
  if (other.lo < span.lo) {
    span.lo = other.lo;
    grew = true;
  }
  if (other.hi > span.hi) {
    span.hi = other.hi;
    grew = true;
  }
  return grew;
}

}  // namespace

std::shared_ptr<const ConeIndex> ConeIndex::build(const Tape& tape) {
  auto index = std::shared_ptr<ConeIndex>(new ConeIndex());
  const std::size_t n_slots = tape.slot_count();
  const std::vector<Instr>& instrs = tape.instrs();
  index->instr_count_ = instrs.size();
  index->spans_.assign(n_slots, ConeSpan{});

  std::vector<ConeSpan>& spans = index->spans_;
  // Fixpoint: intervals only grow and are bounded by [0, instr_count), so
  // the loop terminates; each sweep costs O(instrs + dffs).
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = instrs.size(); i-- > 0;) {
      const Instr& it = instrs[i];
      // If any input of instruction i changes, i recomputes (index i joins
      // the cone) and its outputs may change (their cones join too).
      ConeSpan affected{static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(i + 1)};
      grow(affected, spans[it.out]);
      if (it.out2 != kNullSlot) grow(affected, spans[it.out2]);
      changed |= grow(spans[it.a], affected);
      if (it.b != kNullSlot) changed |= grow(spans[it.b], affected);
      if (it.c != kNullSlot) changed |= grow(spans[it.c], affected);
    }
    for (const DffSlots& dff : tape.dffs()) {
      // A corrupted D is clocked into Q, so D inherits Q's cone (the clock
      // edge itself is simulated in full and needs no instruction slot).
      changed |= grow(spans[dff.d], spans[dff.q]);
    }
  }
  return index;
}

double ConeIndex::mean_span_fraction() const {
  if (instr_count_ == 0) return 0.0;
  std::uint64_t total = 0;
  std::size_t nonempty = 0;
  for (const ConeSpan& span : spans_) {
    if (span.empty()) continue;
    total += span.length();
    ++nonempty;
  }
  if (nonempty == 0) return 0.0;
  return static_cast<double>(total) /
         (static_cast<double>(nonempty) * static_cast<double>(instr_count_));
}

}  // namespace dwt::rtl::compiled
