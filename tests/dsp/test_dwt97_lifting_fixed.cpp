// The integer 9/7 lifting models of Table 2: the ladder's fixed (n/2^f)
// and integer-register (full-precision constant) step tables, and the
// bit-true trace model they are checked against.
#include "dsp/dwt97_lifting_fixed.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "dsp/lifting_ladder.hpp"
#include "support/lines.hpp"

namespace dwt::dsp {
namespace {

using test::Bands;

Bands<std::int64_t> fixed_forward(const std::vector<std::int64_t>& x,
                                  const LiftingFixedCoeffs& c) {
  return test::forward_bands(LiftingLadder(fixed97_steps(c), false), x);
}

std::vector<std::int64_t> fixed_inverse(const Bands<std::int64_t>& s,
                                        const LiftingFixedCoeffs& c) {
  return test::inverse_line(LiftingLadder(fixed97_steps(c), true), s.low,
                            s.high);
}

Bands<std::int64_t> hw_forward(const std::vector<std::int64_t>& x,
                               const LiftingCoeffs& c) {
  return test::forward_bands(LiftingLadder(hw97_steps(c), false), x);
}

std::vector<std::int64_t> hw_inverse(const Bands<std::int64_t>& s,
                                     const LiftingCoeffs& c) {
  return test::inverse_line(LiftingLadder(hw97_steps(c), true), s.low, s.high);
}

std::vector<std::int64_t> random_samples(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::int64_t> x(n);
  for (auto& v : x) v = rng.uniform(-128, 127);
  return x;
}

TEST(LiftingFixed, LiftStepDefinition) {
  const auto c = LiftingFixedCoeffs::rounded(8);
  EXPECT_EQ(lift_step(7, 10, 20, c.alpha), 7 + ((30 * -406) >> 8));
  EXPECT_EQ(scale_step(100, c.inv_k), (100 * 208) >> 8);
}

TEST(LiftingFixed, TracksFloatWithinQuantization) {
  const auto xi = random_samples(128, 3);
  const std::vector<double> xd(xi.begin(), xi.end());
  const auto c = LiftingFixedCoeffs::rounded(8);
  const Bands<std::int64_t> sf = fixed_forward(xi, c);
  const Bands<double> s = test::forward_row(Method::kLiftingFloat, xd);
  for (std::size_t i = 0; i < sf.low.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(sf.low[i]), s.low[i], 6.0) << i;
    EXPECT_NEAR(static_cast<double>(sf.high[i]), s.high[i], 6.0) << i;
  }
}

class FixedRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FixedRoundTrip, ErrorBoundedByAFewLsb) {
  const auto xi = random_samples(96, GetParam());
  const auto c = LiftingFixedCoeffs::rounded(8);
  const Bands<std::int64_t> s = fixed_forward(xi, c);
  const std::vector<std::int64_t> xr = fixed_inverse(s, c);
  ASSERT_EQ(xr.size(), xi.size());
  for (std::size_t i = 0; i < xi.size(); ++i) {
    EXPECT_LE(std::abs(xr[i] - xi[i]), 5) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixedRoundTrip, ::testing::Range<std::uint64_t>(1, 17));

TEST(LiftingFixed, TraceStagesAreConsistent) {
  const auto xi = random_samples(32, 9);
  const auto c = LiftingFixedCoeffs::rounded(8);
  const LiftingTrace t = lifting97_forward_fixed_trace(xi, c);
  ASSERT_EQ(t.d1.size(), 16u);
  // Re-derive d1 from the definition.
  for (std::size_t i = 0; i < 16; ++i) {
    const std::int64_t s_next = i + 1 < 16 ? t.s0[i + 1] : t.s0[15];
    EXPECT_EQ(t.d1[i], lift_step(t.d0[i], t.s0[i], s_next, c.alpha)) << i;
  }
  // Outputs come from the final stages.
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(t.low[i], scale_step(t.s2[i], c.inv_k)) << i;
    EXPECT_EQ(t.high[i], scale_step(t.d2[i], c.minus_k)) << i;
  }
}

TEST(LiftingFixed, TraceMatchesForwardOutputs) {
  const auto xi = random_samples(64, 10);
  const auto c = LiftingFixedCoeffs::rounded(8);
  const LiftingTrace t = lifting97_forward_fixed_trace(xi, c);
  const Bands<std::int64_t> s = fixed_forward(xi, c);
  EXPECT_EQ(t.low, s.low);
  EXPECT_EQ(t.high, s.high);
}

TEST(LiftingFixed, LiftingStepsInvertExactly) {
  // Only the k-scaling is lossy; verify by scaling manually and inverting
  // the four lifting steps alone.
  const auto xi = random_samples(64, 11);
  const auto c = LiftingFixedCoeffs::rounded(8);
  const LiftingTrace t = lifting97_forward_fixed_trace(xi, c);
  // Reconstruct from s2/d2 (pre-scaling): must be bit exact.
  std::vector<std::int64_t> s = t.s2;
  std::vector<std::int64_t> d = t.d2;
  const std::size_t half = s.size();
  auto s_at = [&](std::size_t i) { return i < half ? s[i] : s[half - 1]; };
  auto d_before = [&](std::size_t i) { return i == 0 ? d[0] : d[i - 1]; };
  for (std::size_t i = 0; i < half; ++i)
    s[i] -= common::mul_const_truncate(d_before(i) + d[i], c.delta);
  for (std::size_t i = 0; i < half; ++i)
    d[i] -= common::mul_const_truncate(s[i] + s_at(i + 1), c.gamma);
  for (std::size_t i = 0; i < half; ++i)
    s[i] -= common::mul_const_truncate(d_before(i) + d[i], c.beta);
  for (std::size_t i = 0; i < half; ++i)
    d[i] -= common::mul_const_truncate(s[i] + s_at(i + 1), c.alpha);
  for (std::size_t i = 0; i < half; ++i) {
    EXPECT_EQ(s[i], xi[2 * i]) << i;
    EXPECT_EQ(d[i], xi[2 * i + 1]) << i;
  }
}

TEST(LiftingFixed, CoarserWordLengthIncreasesError) {
  // Per-step truncation noise (~1 LSB of the integer state) dominates once
  // the constants carry >= 8 fractional bits, so widening past 8 changes
  // little; *narrowing* the constants to 4 bits visibly hurts.
  const auto xi = random_samples(128, 13);
  const std::vector<double> xd(xi.begin(), xi.end());
  const Bands<double> ref = test::forward_row(Method::kLiftingFloat, xd);
  double err4 = 0, err8 = 0;
  const auto s4 = fixed_forward(xi, LiftingFixedCoeffs::rounded(4));
  const auto s8 = fixed_forward(xi, LiftingFixedCoeffs::rounded(8));
  for (std::size_t i = 0; i < ref.low.size(); ++i) {
    err4 += std::abs(static_cast<double>(s4.low[i]) - ref.low[i]);
    err8 += std::abs(static_cast<double>(s8.low[i]) - ref.low[i]);
  }
  EXPECT_GT(err4, 1.5 * err8);
}

TEST(LiftingFixed, HwFloatCoincidesWithRoundedConstantsAtMatchingPrecision) {
  // floor(raw/256 * v) == (raw * v) >> 8: running the hw-float model with
  // the rounded constants must reproduce the fixed model bit for bit.
  const auto xi = random_samples(96, 21);
  const auto fc = LiftingFixedCoeffs::rounded(8);
  const LiftingCoeffs rc{fc.alpha.to_double(), fc.beta.to_double(),
                         fc.gamma.to_double(), fc.delta.to_double(),
                         -fc.minus_k.to_double()};
  const auto a = fixed_forward(xi, fc);
  const auto b = hw_forward(xi, rc);
  // The high path multiplies by -k = -315/256, exactly representable in
  // double, so floor((raw*v)/256) == (raw*v)>>8 bit for bit.  (The low path
  // uses 1/k, whose reciprocal is not representable, so it may differ by
  // one LSB.)
  EXPECT_EQ(a.high, b.high);
  for (std::size_t i = 0; i < a.low.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(a.low[i]), static_cast<double>(b.low[i]),
                1.0);
  }
}

TEST(LiftingFixed, HwFloatRoundTripErrorBounded) {
  const auto xi = random_samples(96, 22);
  const auto& c = LiftingCoeffs::daubechies97();
  const auto s = hw_forward(xi, c);
  const auto xr = hw_inverse(s, c);
  for (std::size_t i = 0; i < xi.size(); ++i) {
    EXPECT_LE(std::abs(xr[i] - xi[i]), 5) << i;
  }
}

TEST(LiftingFixed, OddLengthRoundTripErrorBounded) {
  const auto c = LiftingFixedCoeffs::rounded(8);
  const auto x = random_samples(33, 17);
  const auto s = fixed_forward(x, c);
  EXPECT_EQ(s.low.size(), 17u);
  EXPECT_EQ(s.high.size(), 16u);
  // The k-scaling is lossy, so like the even-length round trip the error is
  // a few LSB, not zero.
  const auto xr = fixed_inverse(s, c);
  ASSERT_EQ(xr.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(std::abs(xr[i] - x[i]), 5) << "i=" << i;
  }
}

TEST(LiftingFixed, RejectsEmptySignal) {
  const auto c = LiftingFixedCoeffs::rounded(8);
  EXPECT_THROW((void)lifting97_forward_fixed_trace({}, c),
               std::invalid_argument);
  Image empty(0, 1);
  EXPECT_THROW(dwt2d_forward(Method::kLiftingFixed, empty, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace dwt::dsp
