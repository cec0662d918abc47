// The one lifting ladder behind every lifting transform (paper figure 3):
// alternating predict steps (odd samples from their even neighbours) and
// update steps (even samples from their odd neighbours), then a low-pass and
// a high-pass output scale.  A wavelet is a step table -- one multiplier per
// step plus the two output scales and their inverses -- and the library has
// four: the float, fixed (n/2^f, Table 1) and integer-register 9/7 models of
// Table 2, and the reversible JPEG2000 5/3.  The ladder lifts a whole pass
// of strided lines in place -- every row of a region, or every column --
// through one scratch buffer that stacks the lines' even and odd halves,
// with one pad slot per line for the JPEG2000 (1,1) symmetric extension, so
// each step is one flat loop over the batch, the way a pipelined datapath
// takes a new sample pair each clock.  Any N >= 1 transforms (a single
// sample passes through), and a forward line comes out packed as ceil(N/2)
// low then floor(N/2) high values.  The int32 plane entry points compile
// this ladder twice, portable and AVX2, and run the one the CPU supports
// (dsp/dwt2d.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/fixed_point.hpp"
#include "dsp/lifting_coeffs.hpp"

namespace dwt::dsp {

/// c * x, or x / c where `divide` is set: the float model scales by x / k,
/// which is not bit-identical to x * (1/k).
struct FloatMul {
  using value_type = double;
  double c;
  bool divide = false;
  double operator()(double x) const { return divide ? x / c : c * x; }
};

// The integer multipliers compute in their sample type T, so a ladder on
// int32 samples multiplies int32 lanes; which T a transform may use is the
// int32 guard's decision (dsp/lifting_bound.hpp).

/// (x * raw) >> shift, the gate-level datapath's truncating constant
/// multiply by raw / 2^shift.
template <class T>
struct FixedMul {
  using value_type = T;
  T raw;
  int shift;
  T operator()(T x) const { return static_cast<T>((x * raw) >> shift); }
};

/// floor(c * x): a full-precision constant feeding integer registers.
template <class T>
struct FloorMul {
  using value_type = T;
  double c;
  T operator()(T x) const {
    return static_cast<T>(std::floor(c * static_cast<double>(x)));
  }
};

/// sign * ((x + bias) >> shift): the 5/3's dyadic steps.
template <class T>
struct ShiftMul {
  using value_type = T;
  T sign, bias;
  int shift;
  T operator()(T x) const {
    return static_cast<T>(sign * ((x + bias) >> shift));
  }
};

/// lift[0] is a predict step and the steps alternate.
template <class Mul, std::size_t Steps>
struct StepTable {
  std::array<Mul, Steps> lift;
  Mul low, high;          ///< forward output scales
  Mul inv_low, inv_high;  ///< their inverses
};

inline StepTable<FloatMul, 4> float97_steps(const LiftingCoeffs& c) {
  return {{{{c.alpha}, {c.beta}, {c.gamma}, {c.delta}}},
          {c.k, true}, {-c.k}, {c.k}, {-c.k, true}};
}

template <class T = std::int64_t>
StepTable<FixedMul<T>, 4> fixed97_steps(const LiftingFixedCoeffs& c) {
  const auto mul = [](const common::Fixed& f) {
    return FixedMul<T>{static_cast<T>(f.raw()), f.frac_bits()};
  };
  return {{{mul(c.alpha), mul(c.beta), mul(c.gamma), mul(c.delta)}},
          mul(c.inv_k), mul(c.minus_k), mul(c.k), mul(c.minus_inv_k)};
}

template <class T = std::int64_t>
StepTable<FloorMul<T>, 4> hw97_steps(const LiftingCoeffs& c) {
  return {{{{c.alpha}, {c.beta}, {c.gamma}, {c.delta}}},
          {1.0 / c.k}, {-c.k}, {c.k}, {-1.0 / c.k}};
}

template <class T = std::int64_t>
constexpr StepTable<ShiftMul<T>, 2> reversible53_steps() {
  return {{{{-1, 0, 1}, {1, 2, 2}}}, {1, 0, 0}, {1, 0, 0}, {1, 0, 0}, {1, 0, 0}};
}

/// This thread's ladder scratch for samples of type T, at least n of them:
/// one buffer per thread and sample type, grown on demand and kept, so a
/// transform of many small windows (tiles) allocates nothing once its
/// thread has lifted the largest.  A ladder block writes every slot before
/// reading it and calls nothing that lifts, so the blocks of every ladder
/// on the thread can share it.  Left uninitialised.
template <class T>
T* ladder_scratch(std::size_t n) {
  thread_local std::unique_ptr<T[]> buffer;
  thread_local std::size_t size = 0;
  if (size < n) {
    buffer = std::make_unique_for_overwrite<T[]>(n);
    size = n;
  }
  return buffer.get();
}

/// The forward (or, with `inverse`, the inverse) transform as a line
/// operation.  ladder(x, n, stride, lanes, lane_stride) lifts `lanes` lines
/// of n samples in place, sample i of line j being
/// x[i * stride + j * lane_stride]: the rows of a w x h region are
/// (top, w, 1, h, pitch) and its columns (top, h, pitch, w, 1), so one call
/// lifts a whole pass.  Lines go through in blocks of at most kBlockLines,
/// and the thread's ladder scratch holds one block.
template <class Mul, std::size_t Steps>
class LiftingLadder {
 public:
  using T = typename Mul::value_type;
  static constexpr std::size_t kBlockLines = 64;

  LiftingLadder(const StepTable<Mul, Steps>& steps, bool inverse)
      : steps_(steps), inverse_(inverse) {}

  void operator()(T* x, std::size_t n, std::size_t stride = 1,
                  std::size_t lanes = 1, std::size_t lane_stride = 1) {
    if (n < 2) return;  // an even-indexed singleton passes through
    for (std::size_t j = 0; j < lanes; j += kBlockLines) {
      lift_block(x + j * lane_stride, n, stride,
                 std::min(kBlockLines, lanes - j), lane_stride);
    }
  }

 private:
  // The scratch stacks the block's half-lines: s holds the ceil(N/2)
  // even-phase samples of every line and d the floor(N/2) odd-phase ones,
  // ns + 2 slots per line each.  Pads hold the (1,1) symmetric extension
  // x[-1] = x[1], x[N] = x[N-2]: slot 0 of d is d[-1] = d[0] and d's
  // samples follow from slot 1; slot ns of s is s[ns], which is x[N] =
  // s[ns-1] for even N and x[N+1] = x[N-3] = s[ns-2] for odd N; for odd N,
  // slot ns of d is d[nd] = d[nd-1].  The last slot of both halves is zero.
  // A row pass has each line's samples side by side (stride 1), so a line's
  // slots are too; a column pass has its lanes side by side, so slot i of
  // every lane is.  Either way predict is d[i] += m(s[i] + s[i+1]) and
  // update s[i] += m(d[i-1] + d[i]) at every slot of every line at once --
  // one flat loop per step -- and the pads of the half a step changed are
  // refreshed after it.  Where a loop runs from one row into the next it
  // reads a row's last slot and its zero, then the zero and the next row's
  // first slot, so no slot ever holds values of two rows; the int32 guard
  // lifts rows in pairs to bound those values too (dsp/lifting_bound.hpp).
  void lift_block(T* x, std::size_t n, std::size_t stride, std::size_t lanes,
                  std::size_t lane_stride) {
    const std::size_t ns = (n + 1) / 2, nd = n / 2, slots = ns + 2;
    const bool rows = stride == 1;
    const std::size_t slot = rows ? 1 : lanes;  // slot i to slot i + 1
    const std::size_t line = rows ? slots : 1;  // line j to line j + 1
    T* s = ladder_scratch<T>(2 * slots * lanes);
    T* d = s + slots * lanes;
    const auto same = [](T v) { return v; };
    // Sample k of every line to or from its slot.  The forward input and
    // the inverse output interleave the halves (sample 2i is s[i], 2i + 1 is
    // d[i]); the forward output and the inverse input pack them (sample i is
    // s[i], ns + i is d[i]) through the output scales.  A row moves along
    // its samples, a column block a sample's lanes at a time.
    const auto interleaved = [&](bool in) {
      if (rows) {
        for (std::size_t j = 0; j < lanes; ++j) {
          T* r = x + j * lane_stride;
          T* sj = s + j * line;
          T* dj = d + j * line + 1;
          in ? split(sj, dj, r, n) : join(r, sj, dj, n);
        }
        return;
      }
      for (std::size_t k = 0; k < n; ++k) {
        T* r = x + k * stride;
        T* h = (k % 2 == 0 ? s : d + slot) + k / 2 * slot;
        in ? copy(h, 1, r, lane_stride, lanes, same)
           : copy(r, lane_stride, h, 1, lanes, same);
      }
    };
    const auto packed = [&](bool in, const Mul& fs, const Mul& fd) {
      if (rows) {
        for (std::size_t j = 0; j < lanes; ++j) {
          T* r = x + j * lane_stride;
          T* sj = s + j * line;
          T* dj = d + j * line + 1;
          if (in) {
            copy(sj, 1, r, 1, ns, fs);
            copy(dj, 1, r + ns, 1, nd, fd);
          } else {
            copy(r, 1, sj, 1, ns, fs);
            copy(r + ns, 1, dj, 1, nd, fd);
          }
        }
        return;
      }
      for (std::size_t k = 0; k < n; ++k) {
        T* r = x + k * stride;
        T* h = k < ns ? s + k * slot : d + (k - ns + 1) * slot;
        const Mul& f = k < ns ? fs : fd;
        in ? copy(h, 1, r, lane_stride, lanes, f)
           : copy(r, lane_stride, h, 1, lanes, f);
      }
    };
    // Slot `to` of every line of a half takes slot `from`'s value.
    const auto pad = [&](T* half, std::size_t to, std::size_t from) {
      copy(half + to * slot, line, half + from * slot, line, lanes, same);
    };
    const auto clear = [&](T* half) {
      T* zero = half + (ns + 1) * slot;
      for (std::size_t j = 0; j < lanes; ++j) zero[j * line] = T{};
    };
    const auto extend_s = [&] {
      pad(s, ns, ns - 1 - n % 2);
      clear(s);
    };
    const auto extend_d = [&] {
      pad(d, 0, 1);
      if (n % 2 != 0) pad(d, ns, nd);
      clear(d);
    };
    if (inverse_) {
      packed(true, steps_.inv_low, steps_.inv_high);
    } else {
      interleaved(true);
    }
    extend_s();
    extend_d();
    const std::size_t count = slots * lanes - slot;
    for (std::size_t q = 0; q < Steps; ++q) {
      const std::size_t k = inverse_ ? Steps - 1 - q : q;
      if (k % 2 == 0) {  // predict
        step(k, d + slot, s, s + slot, count);
        extend_d();
      } else {  // update
        step(k, s, d, d + slot, count);
        extend_s();
      }
    }
    if (inverse_) {
      interleaved(false);
    } else {
      packed(false, steps_.low, steps_.high);
    }
  }

  /// Samples 2i and 2i + 1 of a row x of n samples to s[i] and d[i], and
  /// back.
  static void split(T* __restrict s, T* __restrict d, const T* __restrict x,
                    std::size_t n) {
    const std::size_t nd = n / 2;
    for (std::size_t i = 0; i < nd; ++i) {
      s[i] = x[2 * i];
      d[i] = x[2 * i + 1];
    }
    if (n % 2 != 0) s[nd] = x[2 * nd];
  }

  static void join(T* __restrict x, const T* __restrict s,
                   const T* __restrict d, std::size_t n) {
    const std::size_t nd = n / 2;
    for (std::size_t i = 0; i < nd; ++i) {
      x[2 * i] = s[i];
      x[2 * i + 1] = d[i];
    }
    if (n % 2 != 0) x[2 * nd] = s[nd];
  }

  /// to[i * to_step] = f(from[i * from_step]) for i < count.
  template <class F>
  static void copy(T* __restrict to, std::size_t to_step,
                   const T* __restrict from, std::size_t from_step,
                   std::size_t count, F f) {
    for (std::size_t i = 0; i < count; ++i) {
      to[i * to_step] = f(from[i * from_step]);
    }
  }

  // Step k over `count` flat positions: target[i] += m(a[i] + b[i]), or -=
  // for the inverse.  Every term reads only the other phase, so the in-place
  // sweep is exact and the inverse subtracts the identical term; x + (-t)
  // is x - t exactly, for doubles too.  Multipliers go by value and the
  // halves by restrict pointers (a and b overlap but are only read), so the
  // loop vectorises without a check that a store feeds a later load.
  void step(std::size_t k, T* target, const T* a, const T* b,
            std::size_t count) const {
    if (inverse_) {
      lift<false>(steps_.lift[k], target, a, b, count);
    } else {
      lift<true>(steps_.lift[k], target, a, b, count);
    }
  }

  template <bool Forward>
  static void lift(const Mul m, T* __restrict target, const T* __restrict a,
                   const T* __restrict b, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      target[i] += Forward ? m(a[i] + b[i]) : -m(a[i] + b[i]);
    }
  }

  StepTable<Mul, Steps> steps_;
  bool inverse_;
};

}  // namespace dwt::dsp
