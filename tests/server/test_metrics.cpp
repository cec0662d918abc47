// ServerMetrics latency histogram: the log-bucketed percentile estimator
// behind dwt97d's p50/p99 records.  percentile_locked is private, so every
// expectation drives it through record_ok() + snapshot(); the bucket
// geometry (bucket b = latencies of bit width b, interpolated linearly
// across [2^(b-1), 2^b - 1]) makes the expected values exact doubles.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/artifact_cache.hpp"
#include "server/metrics.hpp"

namespace dwt::server {
namespace {

TEST(ServerMetrics, EmptyHistogramReportsZeroPercentiles) {
  const ServerMetrics m;
  const MetricsSnapshot s = m.snapshot();
  EXPECT_EQ(s.latency_p50_us, 0.0);
  EXPECT_EQ(s.latency_p99_us, 0.0);
  EXPECT_EQ(s.latency_mean_us, 0.0);
  EXPECT_EQ(s.requests_ok, 0u);
}

TEST(ServerMetrics, SingleSampleInterpolatesAcrossItsBucket) {
  // 64 us has bit width 7, so it lands in bucket [64, 127].  One sample,
  // p50 targets rank 0.5 -> midpoint of the bucket: 64 + 0.5 * 63 = 95.5.
  ServerMetrics m;
  m.record_ok("default", 64);
  const MetricsSnapshot s = m.snapshot();
  EXPECT_DOUBLE_EQ(s.latency_p50_us, 95.5);
  EXPECT_DOUBLE_EQ(s.latency_p99_us, 64.0 + 0.99 * 63.0);
  EXPECT_DOUBLE_EQ(s.latency_mean_us, 64.0);  // mean is exact, not bucketed
}

TEST(ServerMetrics, ZeroLatencySamplesStayInBucketZero) {
  ServerMetrics m;
  for (int i = 0; i < 10; ++i) m.record_ok("default", 0);
  const MetricsSnapshot s = m.snapshot();
  EXPECT_EQ(s.latency_p50_us, 0.0);
  EXPECT_EQ(s.latency_p99_us, 0.0);
}

TEST(ServerMetrics, P50NeverExceedsP99) {
  ServerMetrics m;
  // A spread across several buckets: mostly fast, a slow tail.
  for (int i = 0; i < 90; ++i) m.record_ok("default", 100);
  for (int i = 0; i < 9; ++i) m.record_ok("default", 3000);
  m.record_ok("default", 200000);
  const MetricsSnapshot s = m.snapshot();
  EXPECT_LE(s.latency_p50_us, s.latency_p99_us);
  // p50 sits in the 100 us bucket [64, 127], p99 in the tail.
  EXPECT_GE(s.latency_p50_us, 64.0);
  EXPECT_LE(s.latency_p50_us, 127.0);
  EXPECT_GE(s.latency_p99_us, 2048.0);
}

TEST(ServerMetrics, PowerOfTwoBucketBoundaries) {
  // 64 and 127 share bucket 7, so histograms built from either are
  // indistinguishable; 128 starts bucket 8 and must not be.
  ServerMetrics lo;
  ServerMetrics hi;
  ServerMetrics next;
  for (int i = 0; i < 5; ++i) {
    lo.record_ok("default", 64);
    hi.record_ok("default", 127);
    next.record_ok("default", 128);
  }
  EXPECT_DOUBLE_EQ(lo.snapshot().latency_p50_us, hi.snapshot().latency_p50_us);
  EXPECT_GT(next.snapshot().latency_p50_us, hi.snapshot().latency_p50_us);
  // Bucket 8 spans [128, 255]; its midpoint interpolation stays inside.
  EXPECT_GE(next.snapshot().latency_p50_us, 128.0);
  EXPECT_LE(next.snapshot().latency_p50_us, 255.0);
}

TEST(ServerMetrics, SnapshotAggregatesCounters) {
  ServerMetrics m;
  m.record_ok("rtl-compiled", 10);
  m.record_ok("rtl-compiled", 20);
  m.record_ok("default", 30);
  m.record_error();
  const MetricsSnapshot s = m.snapshot();
  EXPECT_EQ(s.requests_ok, 3u);
  EXPECT_EQ(s.requests_error, 1u);
  EXPECT_EQ(s.requests_total, 4u);
  EXPECT_DOUBLE_EQ(s.latency_mean_us, 20.0);
  EXPECT_EQ(s.backend_requests.at("rtl-compiled"), 2u);
  EXPECT_EQ(s.backend_requests.at("default"), 1u);
}

TEST(ServerMetrics, JsonReportsTheTileThreadsBesideTheWorkers) {
  const std::string json = ServerMetrics().render_json(
      /*queue_depth=*/0, /*queue_capacity=*/8, /*workers=*/2,
      /*tile_threads=*/3, core::CacheStats{});
  const std::size_t workers =
      json.find("\"metric\": \"workers\", \"value\": 2,");
  const std::size_t tile_threads =
      json.find("\"metric\": \"tile_threads\", \"value\": 3,");
  ASSERT_NE(workers, std::string::npos) << json;
  ASSERT_NE(tile_threads, std::string::npos) << json;
  EXPECT_LT(workers, tile_threads);
}

}  // namespace
}  // namespace dwt::server
