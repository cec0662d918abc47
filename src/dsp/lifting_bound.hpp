// The int32 guard: a sound magnitude bound for every value one ladder pass
// computes, so an integer transform runs on int32 samples only where no
// sum, product or lifted sample can leave int32, and at all only where none
// can leave int64.
//
// A pass is linear up to its truncations, so each value it computes is an
// affine form c . x + e over the line's inputs x, with |e| bounded by the
// truncations feeding it.  With inputs inside +-R the value stays inside
// |c|_1 * R + |e|.  The bound runs the one ladder itself on such forms
// (BoundSample) for every line length 2..kBoundLines; a line's values depend
// only on inputs a few samples away, so longer lines repeat the
// neighbourhoods of these lengths (both parities at the far end) and the
// maximum over them holds for any length.  It lifts two lines of each
// length in one call, as the row pass lifts a block of rows: where the
// batch's flat step loops run from one row into the next they also compute
// from a row's pads and zero slots, every pair of neighbouring rows looks
// like these two, and so those values are bounded with the rest.  Per-stage
// interval chains, by contrast, lose the cancellation between lifting
// steps: for the 9/7 they grow 8.3x per forward pass and 11.9x per inverse
// pass, against 2.6x and 2.2x here.  A FIR bank pass has no steps to
// cancel, so its bound comes straight from the tap table.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "dsp/fir_filter.hpp"
#include "dsp/lifting_ladder.hpp"

namespace dwt::dsp {

/// Bounds of one ladder pass as affine functions of the input bound R:
/// every value it computes (inputs, sums, products, lifted samples, outputs)
/// stays inside peak_gain * R + peak_bias, and every output inside
/// out_gain * R + out_bias.
struct PassBound {
  double out_gain = 0, out_bias = 0;
  double peak_gain = 0, peak_bias = 0;
};

/// Bounds of a chain of passes from inputs inside +-r.
struct ChainBound {
  double peak = 0;  ///< largest magnitude any computed value reaches
  double out = 0;   ///< largest magnitude left in the plane afterwards
};

/// `passes` successive passes over a plane whose values start inside +-r.
/// A pass reads fresh outputs of the previous one or values no pass has
/// touched yet (the inverse's next octave), hence the running maximum.
inline ChainBound chain_bound(const PassBound& b, int passes, double r) {
  ChainBound c{r, r};
  for (int p = 0; p < passes; ++p) {
    c.peak = std::max(c.peak, b.peak_gain * c.out + b.peak_bias);
    c.out = std::max(c.out, b.out_gain * c.out + b.out_bias);
  }
  return c;
}

/// Whether a chain stays inside int32 (with a margin for the rounding of
/// the bound's own double arithmetic).
inline bool fits_int32(const ChainBound& c) {
  return c.peak * (1.0 + 1e-9) <=
         static_cast<double>(std::numeric_limits<std::int32_t>::max());
}

/// Whether a chain stays inside int64, with the same margin.
inline bool fits_int64(const ChainBound& c) {
  return c.peak * (1.0 + 1e-9) <=
         static_cast<double>(std::numeric_limits<std::int64_t>::max());
}

inline constexpr std::size_t kBoundLines = 39;
/// Inputs of the two lines the bound lifts together.
inline constexpr std::size_t kBoundInputs = 2 * kBoundLines;

/// Running maxima of the gains and biases of the values noted so far.
struct BoundTracker {
  double gain = 0, bias = 0;
  void note(double g, double b) {
    gain = std::max(gain, g);
    bias = std::max(bias, b);
  }
};

/// One ladder value as an affine form over a line's inputs; every sum and
/// lift notes its own magnitude with the pass's tracker.
class BoundSample {
 public:
  BoundSample() = default;
  /// Input `i` of the batch.
  BoundSample(BoundTracker* tracker, std::size_t i) : tracker_(tracker) {
    c_[i] = 1.0;
    note(1.0, 0.0);
  }

  [[nodiscard]] double gain() const {
    double g = 0;
    for (const double v : c_) g += std::abs(v);
    return g;
  }
  [[nodiscard]] double err() const { return err_; }

  /// factor * this, off by at most `trunc` (the multiplier's rounding).
  [[nodiscard]] BoundSample scaled(double factor, double trunc) const {
    BoundSample r = *this;
    for (double& v : r.c_) v *= factor;
    r.err_ = std::abs(factor) * err_ + trunc;
    r.note(1.0, 0.0);
    return r;
  }
  /// Notes factor * (this + offset): an integer product or pre-shift sum.
  void note(double factor, double offset) const {
    tracker_->note(factor * gain(), factor * (err_ + offset));
  }

  BoundSample operator-() const {
    BoundSample r = *this;
    for (double& v : r.c_) v = -v;
    return r;
  }
  BoundSample& operator+=(const BoundSample& o) {
    for (std::size_t i = 0; i < kBoundInputs; ++i) c_[i] += o.c_[i];
    err_ += o.err_;
    if (tracker_ == nullptr) tracker_ = o.tracker_;
    note(1.0, 0.0);
    return *this;
  }
  friend BoundSample operator+(BoundSample a, const BoundSample& b) {
    return a += b;
  }

 private:
  std::array<double, kBoundInputs> c_{};
  double err_ = 0;
  BoundTracker* tracker_ = nullptr;
};

// Each integer multiplier's real model: the factor it scales by, the
// integer intermediates it forms, and its rounding.
template <class T>
BoundSample bound_of(const FixedMul<T>& m, const BoundSample& x) {
  x.note(std::abs(static_cast<double>(m.raw)), 0.0);  // x * raw
  return x.scaled(std::ldexp(static_cast<double>(m.raw), -m.shift), 1.0);
}
template <class T>
BoundSample bound_of(const FloorMul<T>& m, const BoundSample& x) {
  // The product is a double: its floor is off by under 1, plus under 1 more
  // for the product's own rounding.
  return x.scaled(m.c, 2.0);
}
template <class T>
BoundSample bound_of(const ShiftMul<T>& m, const BoundSample& x) {
  const double bias = std::abs(static_cast<double>(m.bias));
  x.note(1.0, bias);  // x + bias
  const double f = std::ldexp(1.0, -m.shift);
  return x.scaled(static_cast<double>(m.sign) * f, f * bias + 1.0);
}

/// A multiplier run on BoundSamples.
template <class Mul>
struct BoundMul {
  using value_type = BoundSample;
  Mul m;
  BoundSample operator()(const BoundSample& x) const { return bound_of(m, x); }
};

/// The pass bound of `steps` (an integer step table) in one direction.
template <class Mul, std::size_t Steps>
PassBound pass_bound(const StepTable<Mul, Steps>& steps, bool inverse) {
  StepTable<BoundMul<Mul>, Steps> bound{};
  for (std::size_t k = 0; k < Steps; ++k) bound.lift[k].m = steps.lift[k];
  bound.low.m = steps.low;
  bound.high.m = steps.high;
  bound.inv_low.m = steps.inv_low;
  bound.inv_high.m = steps.inv_high;
  BoundTracker peak, out;
  LiftingLadder ladder(bound, inverse);
  for (std::size_t n = 2; n <= kBoundLines; ++n) {
    std::vector<BoundSample> rows;
    for (std::size_t i = 0; i < 2 * n; ++i) rows.emplace_back(&peak, i);
    ladder(rows.data(), n, 1, 2, n);
    for (const BoundSample& v : rows) out.note(v.gain(), v.err());
  }
  return {out.gain, out.bias, peak.gain, peak.bias};
}

/// The pass bound of a FIR tap table in one direction.  An output sums
/// taps times inputs inside +-R, so every product stays inside max|tap| * R,
/// every partial sum inside sum|tap| * R, and the output inside
/// sum|tap| / 2^shift * R + 1 (the shift or floor truncates by under 1),
/// the sums running over the taps one output reads: one analysis filter
/// forward, and inverse the taps of both synthesis filters whose offsets
/// have the parities that output's position selects.
template <class T, class C>
PassBound pass_bound(const FirTaps<T, C>& taps, bool inverse) {
  // sum|tap| over the taps of `f` at offsets of parity `phase` from the
  // centre, or over all of them for -1.
  const auto gain = [](std::span<const C> f, int phase) {
    double g = 0;
    const auto centre = static_cast<std::ptrdiff_t>(f.size() / 2);
    for (std::size_t t = 0; t < f.size(); ++t) {
      const std::ptrdiff_t offset = static_cast<std::ptrdiff_t>(t) - centre;
      if (phase < 0 || (offset & 1) == phase) {
        g += std::abs(static_cast<double>(f[t]));
      }
    }
    return g;
  };
  double sum = 0;
  if (inverse) {
    // An even output reads the synthesis low-pass at even offsets and the
    // high-pass at odd ones; an odd output the other way round.
    for (const int phase : {0, 1}) {
      sum = std::max(sum, gain(taps.synthesis_low, phase) +
                              gain(taps.synthesis_high, 1 - phase));
    }
  } else {
    sum = std::max(gain(taps.analysis_low, -1), gain(taps.analysis_high, -1));
  }
  const double out = std::ldexp(sum, -taps.shift);
  return {out, 1.0, std::max({1.0, sum, out}), 1.0};
}

}  // namespace dwt::dsp
