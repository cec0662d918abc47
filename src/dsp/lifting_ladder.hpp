// The one lifting ladder behind every lifting transform (paper figure 3):
// alternating predict steps (odd samples from their even neighbours) and
// update steps (even samples from their odd neighbours), then a low-pass and
// a high-pass output scale.  A wavelet is a step table -- one multiplier per
// step plus the two output scales and their inverses -- and the library has
// four: the float, fixed (n/2^f, Table 1) and integer-register 9/7 models of
// Table 2, and the reversible JPEG2000 5/3.  The ladder lifts a strided line
// in place (a row at stride 1, a column at the plane's pitch) through one
// n-value scratch buffer, with the JPEG2000 (1,1) symmetric extension and
// the single-sample pass-through, so any N >= 1 transforms.  A forward line
// comes out packed as ceil(N/2) low then floor(N/2) high values.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
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

/// (x * n) >> f, the gate-level datapath's truncating constant multiply.
struct FixedMul {
  using value_type = std::int64_t;
  common::Fixed c;
  std::int64_t operator()(std::int64_t x) const {
    return common::mul_const_truncate(x, c);
  }
};

/// floor(c * x): a full-precision constant feeding integer registers.
struct FloorMul {
  using value_type = std::int64_t;
  double c;
  std::int64_t operator()(std::int64_t x) const {
    return static_cast<std::int64_t>(std::floor(c * static_cast<double>(x)));
  }
};

/// sign * ((x + bias) >> shift): the 5/3's dyadic steps.
struct ShiftMul {
  using value_type = std::int64_t;
  std::int64_t sign, bias;
  int shift;
  std::int64_t operator()(std::int64_t x) const {
    return sign * ((x + bias) >> shift);
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

inline StepTable<FixedMul, 4> fixed97_steps(const LiftingFixedCoeffs& c) {
  return {{{{c.alpha}, {c.beta}, {c.gamma}, {c.delta}}},
          {c.inv_k}, {c.minus_k}, {c.k}, {c.minus_inv_k}};
}

inline StepTable<FloorMul, 4> hw97_steps(const LiftingCoeffs& c) {
  return {{{{c.alpha}, {c.beta}, {c.gamma}, {c.delta}}},
          {1.0 / c.k}, {-c.k}, {c.k}, {-1.0 / c.k}};
}

inline constexpr StepTable<ShiftMul, 2> kReversible53Steps{
    {{{-1, 0, 1}, {1, 2, 2}}}, {1, 0, 0}, {1, 0, 0}, {1, 0, 0}, {1, 0, 0}};

/// The forward (or, with `inverse`, the inverse) transform as a line
/// operation: ladder(x, n, stride) lifts x[0], x[stride], ...,
/// x[(n - 1) * stride] in place.
template <class Mul, std::size_t Steps>
class LiftingLadder {
 public:
  using T = typename Mul::value_type;

  LiftingLadder(const StepTable<Mul, Steps>& steps, bool inverse)
      : steps_(steps), inverse_(inverse) {}

  void operator()(T* x, std::size_t n, std::size_t stride = 1) {
    if (n < 2) return;  // an even-indexed singleton passes through
    const std::size_t ns = (n + 1) / 2, nd = n / 2;
    if (scratch_.size() < n) scratch_.resize(n);
    T* s = scratch_.data();
    T* d = s + ns;
    if (!inverse_) {
      for (std::size_t i = 0; i < ns; ++i) s[i] = x[2 * i * stride];
      for (std::size_t i = 0; i < nd; ++i) d[i] = x[(2 * i + 1) * stride];
      for (std::size_t k = 0; k < Steps; ++k) step<true>(k, s, ns, d, nd);
      for (std::size_t i = 0; i < ns; ++i) x[i * stride] = steps_.low(s[i]);
      for (std::size_t i = 0; i < nd; ++i) {
        x[(ns + i) * stride] = steps_.high(d[i]);
      }
      return;
    }
    for (std::size_t i = 0; i < ns; ++i) s[i] = steps_.inv_low(x[i * stride]);
    for (std::size_t i = 0; i < nd; ++i) {
      d[i] = steps_.inv_high(x[(ns + i) * stride]);
    }
    for (std::size_t k = Steps; k-- > 0;) step<false>(k, s, ns, d, nd);
    for (std::size_t i = 0; i < ns; ++i) x[2 * i * stride] = s[i];
    for (std::size_t i = 0; i < nd; ++i) x[(2 * i + 1) * stride] = d[i];
  }

 private:
  // One step over the ceil(N/2) even-phase values s and the floor(N/2) odd
  // ones d.  The symmetric extension x[-1] = x[1], x[N] = x[N-2] gives
  // d[-1] = d[0], and s[ns] = s[ns-1] (N even) or d[nd] = d[nd-1] (N odd).
  // Every term reads only the other phase, so the in-place sweep is exact
  // and the inverse subtracts the identical term.
  template <bool Forward>
  void step(std::size_t k, T* s, std::size_t ns, T* d, std::size_t nd) const {
    const Mul& m = steps_.lift[k];
    // x + (-t) is x - t exactly, for doubles too.
    const auto lift = [&m](T& target, T sum) {
      target += Forward ? m(sum) : -m(sum);
    };
    if (k % 2 == 0) {  // predict
      for (std::size_t i = 0; i + 1 < ns; ++i) lift(d[i], s[i] + s[i + 1]);
      if (nd == ns) lift(d[nd - 1], s[nd - 1] + s[nd - 1]);
    } else {  // update
      lift(s[0], d[0] + d[0]);
      for (std::size_t i = 1; i < nd; ++i) lift(s[i], d[i - 1] + d[i]);
      if (ns > nd) lift(s[nd], d[nd - 1] + d[nd - 1]);
    }
  }

  StepTable<Mul, Steps> steps_;
  bool inverse_;
  std::vector<T> scratch_;
};

/// The forward ladder over a copy of a 1-D signal, split into `Bands` (an
/// aggregate of the low then the high vector).
template <class Bands, class Mul, std::size_t Steps>
Bands lift_forward(const StepTable<Mul, Steps>& steps,
                   std::span<const typename Mul::value_type> x,
                   const char* who) {
  if (x.empty()) {
    throw std::invalid_argument(std::string(who) + ": empty signal");
  }
  std::vector<typename Mul::value_type> line(x.begin(), x.end());
  LiftingLadder(steps, false)(line.data(), line.size());
  const auto mid = line.begin() + (std::ssize(line) + 1) / 2;
  return {{line.begin(), mid}, {mid, line.end()}};
}

/// Inverse of lift_forward from separate ceil/floor subbands.
template <class Mul, std::size_t Steps>
std::vector<typename Mul::value_type> lift_inverse(
    const StepTable<Mul, Steps>& steps,
    std::span<const typename Mul::value_type> low,
    std::span<const typename Mul::value_type> high, const char* who) {
  if (low.empty() ||
      (high.size() != low.size() && high.size() + 1 != low.size())) {
    throw std::invalid_argument(
        std::string(who) + ": subband sizes must satisfy ceil/floor split");
  }
  std::vector<typename Mul::value_type> line(low.begin(), low.end());
  line.insert(line.end(), high.begin(), high.end());
  LiftingLadder(steps, true)(line.data(), line.size());
  return line;
}

}  // namespace dwt::dsp
