#include "dsp/streaming_lifting.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dsp/fir_filter.hpp"
#include "support/lines.hpp"

namespace dwt::dsp {
namespace {

using Engine = StreamingLadder<FixedMul<std::int64_t>>;

Engine make_engine(std::size_t lanes) {
  return Engine(fixed97_steps(LiftingFixedCoeffs::rounded(8)), lanes);
}

std::vector<std::int64_t> random_samples(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::int64_t> x(n);
  for (auto& v : x) v = rng.uniform(-128, 127);
  return x;
}

/// Feeds the WSS-extended signals (guard pairs before and after), one per
/// lane, and collects each lane's payload outputs -- the same protocol as
/// the hardware harness.
std::vector<test::Bands<std::int64_t>> run_streaming(
    const std::vector<std::vector<std::int64_t>>& signals,
    int guard_pairs = 4) {
  const std::size_t lanes = signals.size();
  const std::size_t n = signals.front().size();
  Engine engine = make_engine(lanes);
  const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(n / 2);
  std::vector<test::Bands<std::int64_t>> out(
      lanes, {std::vector<std::int64_t>(n / 2), std::vector<std::int64_t>(n / 2)});
  std::vector<std::int64_t> even(lanes), odd(lanes), low(lanes), high(lanes);
  for (std::ptrdiff_t t = -guard_pairs; t < half + guard_pairs; ++t) {
    for (std::size_t j = 0; j < lanes; ++j) {
      even[j] = signals[j][mirror_index(2 * t, n)];
      odd[j] = signals[j][mirror_index(2 * t + 1, n)];
    }
    const bool ready =
        engine.push(even.data(), odd.data(), low.data(), high.data());
    const std::ptrdiff_t i = t - Engine::kDelayPairs;
    if (ready && i >= 0 && i < half) {
      for (std::size_t j = 0; j < lanes; ++j) {
        out[j].low[static_cast<std::size_t>(i)] = low[j];
        out[j].high[static_cast<std::size_t>(i)] = high[j];
      }
    }
  }
  return out;
}

test::Bands<std::int64_t> batch(const std::vector<std::int64_t>& x) {
  return test::forward_bands(
      LiftingLadder(fixed97_steps(LiftingFixedCoeffs::rounded(8)), false), x);
}

class StreamingMatchesBatch : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingMatchesBatch, BitExact) {
  // Three independent signals, one per lane.
  std::vector<std::vector<std::int64_t>> signals;
  for (std::uint64_t s = 0; s < 3; ++s) {
    signals.push_back(random_samples(128, 3 * GetParam() + s));
  }
  const auto streamed = run_streaming(signals);
  for (std::size_t j = 0; j < signals.size(); ++j) {
    const auto want = batch(signals[j]);
    EXPECT_EQ(streamed[j].low, want.low) << "lane " << j;
    EXPECT_EQ(streamed[j].high, want.high) << "lane " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingMatchesBatch,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(StreamingLifting, WarmUpReturnsNothing) {
  Engine engine = make_engine(1);
  std::int64_t low = 0, high = 0;
  const std::int64_t samples[] = {1, 2, 3, 4, 5, 6};
  EXPECT_FALSE(engine.push(&samples[0], &samples[1], &low, &high));
  EXPECT_FALSE(engine.push(&samples[2], &samples[3], &low, &high));
  EXPECT_TRUE(engine.push(&samples[4], &samples[5], &low, &high));
}

TEST(StreamingLifting, DeterministicAcrossInstances) {
  const std::vector<std::vector<std::int64_t>> x{random_samples(64, 42)};
  const auto a = run_streaming(x);
  const auto b = run_streaming(x);
  EXPECT_EQ(a[0].low, b[0].low);
  EXPECT_EQ(a[0].high, b[0].high);
}

TEST(StreamingLifting, ShortestSignal) {
  const std::vector<std::int64_t> x{10, -3};
  const auto streamed = run_streaming({x});
  const auto want = batch(x);
  EXPECT_EQ(streamed[0].low, want.low);
  EXPECT_EQ(streamed[0].high, want.high);
}

}  // namespace
}  // namespace dwt::dsp
