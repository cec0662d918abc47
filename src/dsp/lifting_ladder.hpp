// The one lifting ladder behind every lifting transform (paper figure 3):
// alternating predict steps (odd samples from their even neighbours) and
// update steps (even samples from their odd neighbours), then a low-pass and
// a high-pass output scale.  A wavelet is a step table -- one multiplier per
// step plus the two output scales and their inverses -- and the library has
// four: the float, fixed (n/2^f, Table 1) and integer-register 9/7 models of
// Table 2, and the reversible JPEG2000 5/3.  The ladder lifts strided lines
// in place -- one row at stride 1, or a block of adjacent columns at the
// plane's pitch, lane by lane -- through one scratch buffer, with the
// JPEG2000 (1,1) symmetric extension and the single-sample pass-through, so
// any N >= 1 transforms.  A forward line comes out packed as ceil(N/2) low
// then floor(N/2) high values.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

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

/// The forward (or, with `inverse`, the inverse) transform as a line
/// operation.  ladder(x, n, stride, lanes) lifts `lanes` adjacent lines of n
/// samples in place, sample i of line j being x[i * stride + j]: a row is
/// (row, w, 1, 1) and the columns of a w-wide region are (top, h, pitch, w),
/// so the column pass lifts whole rows as vectors.  Lanes go through in
/// blocks of at most kBlockLanes, and the scratch holds one block.
template <class Mul, std::size_t Steps>
class LiftingLadder {
 public:
  using T = typename Mul::value_type;
  static constexpr std::size_t kBlockLanes = 64;

  LiftingLadder(const StepTable<Mul, Steps>& steps, bool inverse)
      : steps_(steps), inverse_(inverse) {}

  void operator()(T* x, std::size_t n, std::size_t stride = 1,
                  std::size_t lanes = 1) {
    if (n < 2) return;  // an even-indexed singleton passes through
    if (lanes == 1) return lift<1>(x, n, stride, 1);
    for (std::size_t j = 0; j < lanes; j += kBlockLanes) {
      const std::size_t block = std::min(kBlockLanes, lanes - j);
      if (block == kBlockLanes) {
        lift<kBlockLanes>(x + j, n, stride, block);
      } else {
        lift<0>(x + j, n, stride, block);
      }
    }
  }

 private:
  // Lanes is the block's lane count when known at compile time (a row, a
  // full block), else 0 and `lanes` holds it.  Row i of the scratch's s and
  // d holds sample i of every lane.
  template <std::size_t Lanes>
  void lift(T* x, std::size_t n, std::size_t stride, std::size_t lanes) {
    const std::size_t L = Lanes != 0 ? Lanes : lanes;
    const std::size_t ns = (n + 1) / 2, nd = n / 2;
    if (scratch_.size() < n * L) scratch_.resize(n * L);
    T* s = scratch_.data();
    T* d = s + ns * L;
    // Multipliers go by value and rows by restrict pointers: the lanes can
    // then be vectorised without a check that a store feeds a later load.
    const auto move = [L](T* __restrict to, const T* __restrict from,
                          const auto f) {
      for (std::size_t j = 0; j < L; ++j) to[j] = f(from[j]);
    };
    const auto same = [](T v) { return v; };
    if (!inverse_) {
      for (std::size_t i = 0; i < ns; ++i) {
        move(s + i * L, x + 2 * i * stride, same);
      }
      for (std::size_t i = 0; i < nd; ++i) {
        move(d + i * L, x + (2 * i + 1) * stride, same);
      }
      for (std::size_t k = 0; k < Steps; ++k) {
        step<true, Lanes>(k, s, ns, d, nd, L);
      }
      for (std::size_t i = 0; i < ns; ++i) {
        move(x + i * stride, s + i * L, steps_.low);
      }
      for (std::size_t i = 0; i < nd; ++i) {
        move(x + (ns + i) * stride, d + i * L, steps_.high);
      }
      return;
    }
    for (std::size_t i = 0; i < ns; ++i) {
      move(s + i * L, x + i * stride, steps_.inv_low);
    }
    for (std::size_t i = 0; i < nd; ++i) {
      move(d + i * L, x + (ns + i) * stride, steps_.inv_high);
    }
    for (std::size_t k = Steps; k-- > 0;) {
      step<false, Lanes>(k, s, ns, d, nd, L);
    }
    for (std::size_t i = 0; i < ns; ++i) {
      move(x + 2 * i * stride, s + i * L, same);
    }
    for (std::size_t i = 0; i < nd; ++i) {
      move(x + (2 * i + 1) * stride, d + i * L, same);
    }
  }

  // One step over the ceil(N/2) even-phase rows s and the floor(N/2) odd
  // ones d, each row L lanes wide.  The symmetric extension x[-1] = x[1],
  // x[N] = x[N-2] gives d[-1] = d[0], and s[ns] = s[ns-1] (N even) or
  // d[nd] = d[nd-1] (N odd).  Every term reads only the other phase, so the
  // in-place sweep is exact and the inverse subtracts the identical term.
  template <bool Forward, std::size_t Lanes>
  void step(std::size_t k, T* s, std::size_t ns, T* d, std::size_t nd,
            std::size_t lanes) const {
    const std::size_t L = Lanes != 0 ? Lanes : lanes;
    const Mul m = steps_.lift[k];
    // x + (-t) is x - t exactly, for doubles too.  a and b may be one row;
    // both are only read.
    const auto lift = [m, L](T* __restrict target, const T* __restrict a,
                             const T* __restrict b) {
      for (std::size_t j = 0; j < L; ++j) {
        target[j] += Forward ? m(a[j] + b[j]) : -m(a[j] + b[j]);
      }
    };
    if (k % 2 == 0) {  // predict
      for (std::size_t i = 0; i + 1 < ns; ++i) {
        lift(d + i * L, s + i * L, s + (i + 1) * L);
      }
      if (nd == ns) lift(d + (nd - 1) * L, s + (nd - 1) * L, s + (nd - 1) * L);
    } else {  // update
      lift(s, d, d);
      for (std::size_t i = 1; i < nd; ++i) {
        lift(s + i * L, d + (i - 1) * L, d + i * L);
      }
      if (ns > nd) lift(s + nd * L, d + (nd - 1) * L, d + (nd - 1) * L);
    }
  }

  StepTable<Mul, Steps> steps_;
  bool inverse_;
  std::vector<T> scratch_;
};

}  // namespace dwt::dsp
