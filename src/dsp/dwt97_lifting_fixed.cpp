#include "dsp/dwt97_lifting_fixed.hpp"

#include <stdexcept>

#include "common/fixed_point.hpp"

namespace dwt::dsp {
namespace {

void require_nonempty(std::size_t n, const char* who) {
  if (n == 0) {
    throw std::invalid_argument(std::string(who) + ": empty signal");
  }
}

// Whole-sample symmetric extension on the polyphase arrays (s = ceil(N/2)
// even samples, d = floor(N/2) odd samples): x[-1] = x[1] gives d[-1] = d[0];
// x[N] = x[N-2] gives s[ns] = s[ns-1] for even N and d[nd] = d[nd-1] for odd
// N.  The trace below therefore computes the extended signal's lifting
// restricted to the valid window, for any N >= 2, independently of the
// shared ladder (dsp/lifting_ladder.hpp) it is the reference for.
std::int64_t s_at(std::span<const std::int64_t> s, std::size_t i) {
  return i < s.size() ? s[i] : s[s.size() - 1];
}
std::int64_t d_at(std::span<const std::int64_t> d, std::ptrdiff_t i) {
  if (i < 0) return d.front();
  if (i >= static_cast<std::ptrdiff_t>(d.size())) return d.back();
  return d[static_cast<std::size_t>(i)];
}

std::int64_t d_before(std::span<const std::int64_t> d, std::size_t i) {
  return d_at(d, static_cast<std::ptrdiff_t>(i) - 1);
}

}  // namespace

std::int64_t lift_step(std::int64_t target, std::int64_t a, std::int64_t b,
                       const common::Fixed& coeff) {
  return target + common::mul_const_truncate(a + b, coeff);
}

std::int64_t scale_step(std::int64_t value, const common::Fixed& coeff) {
  return common::mul_const_truncate(value, coeff);
}

LiftingTrace lifting97_forward_fixed_trace(std::span<const std::int64_t> x,
                                           const LiftingFixedCoeffs& c) {
  require_nonempty(x.size(), "lifting97_forward_fixed_trace");
  LiftingTrace t;
  if (x.size() == 1) {
    // JPEG2000 single-sample rule: an even-indexed singleton passes through.
    t.s0 = {x[0]};
    t.s1 = {x[0]};
    t.s2 = {x[0]};
    t.low = {x[0]};
    return t;
  }
  const std::size_t ns = (x.size() + 1) / 2;
  const std::size_t nd = x.size() / 2;
  t.s0.resize(ns);
  t.d0.resize(nd);
  for (std::size_t i = 0; i < ns; ++i) t.s0[i] = x[2 * i];
  for (std::size_t i = 0; i < nd; ++i) t.d0[i] = x[2 * i + 1];
  t.d1.resize(nd);
  for (std::size_t i = 0; i < nd; ++i)
    t.d1[i] = lift_step(t.d0[i], t.s0[i], s_at(t.s0, i + 1), c.alpha);
  t.s1.resize(ns);
  for (std::size_t i = 0; i < ns; ++i)
    t.s1[i] = lift_step(t.s0[i], d_before(t.d1, i),
                        d_at(t.d1, static_cast<std::ptrdiff_t>(i)), c.beta);
  t.d2.resize(nd);
  for (std::size_t i = 0; i < nd; ++i)
    t.d2[i] = lift_step(t.d1[i], t.s1[i], s_at(t.s1, i + 1), c.gamma);
  t.s2.resize(ns);
  for (std::size_t i = 0; i < ns; ++i)
    t.s2[i] = lift_step(t.s1[i], d_before(t.d2, i),
                        d_at(t.d2, static_cast<std::ptrdiff_t>(i)), c.delta);
  t.low.resize(ns);
  t.high.resize(nd);
  for (std::size_t i = 0; i < ns; ++i) t.low[i] = scale_step(t.s2[i], c.inv_k);
  for (std::size_t i = 0; i < nd; ++i)
    t.high[i] = scale_step(t.d2[i], c.minus_k);
  return t;
}

}  // namespace dwt::dsp
