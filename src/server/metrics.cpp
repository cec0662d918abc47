#include "server/metrics.hpp"

#include <bit>

#include "common/json_writer.hpp"

namespace dwt::server {

void ServerMetrics::record_ok(const std::string& backend_key,
                              std::uint64_t latency_us) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++requests_ok_;
  latency_sum_us_ += latency_us;
  ++latency_buckets_[static_cast<std::size_t>(std::bit_width(latency_us))];
  ++backend_requests_[backend_key];
}

void ServerMetrics::record_error() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++requests_error_;
}

void ServerMetrics::record_rejected_queue_full() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++rejected_queue_full_;
}

void ServerMetrics::record_rejected_shutting_down() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++rejected_shutting_down_;
}

void ServerMetrics::record_protocol_error() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++protocol_errors_;
}

double ServerMetrics::percentile_locked(double q) const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : latency_buckets_) n += c;
  if (n == 0) return 0.0;
  // Nearest-rank target, then linear interpolation across the bucket's
  // value range: deterministic for a given histogram state.
  const double target = q * static_cast<double>(n);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t c = latency_buckets_[b];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      if (b == 0) return 0.0;
      const double lo = static_cast<double>(std::uint64_t{1} << (b - 1));
      const double hi = lo * 2.0 - 1.0;
      const double frac = (target - static_cast<double>(cum)) /
                          static_cast<double>(c);
      return lo + frac * (hi - lo);
    }
    cum += c;
  }
  return 0.0;
}

MetricsSnapshot ServerMetrics::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot s;
  s.requests_ok = requests_ok_;
  s.requests_error = requests_error_;
  s.requests_total = requests_ok_ + requests_error_;
  s.rejected_queue_full = rejected_queue_full_;
  s.rejected_shutting_down = rejected_shutting_down_;
  s.protocol_errors = protocol_errors_;
  s.latency_p50_us = percentile_locked(0.50);
  s.latency_p99_us = percentile_locked(0.99);
  s.latency_mean_us =
      requests_ok_ > 0 ? static_cast<double>(latency_sum_us_) /
                             static_cast<double>(requests_ok_)
                       : 0.0;
  s.backend_requests = backend_requests_;
  return s;
}

std::string ServerMetrics::render_json(std::size_t queue_depth,
                                       std::size_t queue_capacity,
                                       unsigned workers,
                                       unsigned tile_threads,
                                       const core::CacheStats& cache) const {
  const MetricsSnapshot s = snapshot();
  common::JsonRecordWriter doc("dwt97d_metrics");
  const auto count = [&doc](const std::string& metric, double v) {
    doc.add("server", metric, v, "count");
  };
  count("requests_total", static_cast<double>(s.requests_total));
  count("requests_ok", static_cast<double>(s.requests_ok));
  count("requests_error", static_cast<double>(s.requests_error));
  count("rejected_queue_full", static_cast<double>(s.rejected_queue_full));
  count("rejected_shutting_down",
        static_cast<double>(s.rejected_shutting_down));
  count("protocol_errors", static_cast<double>(s.protocol_errors));
  count("queue_depth", static_cast<double>(queue_depth));
  count("queue_capacity", static_cast<double>(queue_capacity));
  count("workers", static_cast<double>(workers));
  count("tile_threads", static_cast<double>(tile_threads));
  doc.add("server", "latency_p50_us", s.latency_p50_us, "us");
  doc.add("server", "latency_p99_us", s.latency_p99_us, "us");
  doc.add("server", "latency_mean_us", s.latency_mean_us, "us");
  const std::uint64_t hits = cache.design_hits + cache.tape_hits +
                             cache.mapped_hits + cache.cone_hits +
                             cache.native_hits;
  const std::uint64_t builds = cache.design_builds + cache.tape_builds +
                               cache.mapped_builds + cache.cone_builds +
                               cache.native_builds;
  doc.add("server", "cache_hit_rate",
          hits + builds > 0
              ? static_cast<double>(hits) / static_cast<double>(hits + builds)
              : 0.0,
          "ratio");
  count("cache_design_builds", static_cast<double>(cache.design_builds));
  count("cache_tape_builds", static_cast<double>(cache.tape_builds));
  count("cache_mapped_builds", static_cast<double>(cache.mapped_builds));
  count("cache_cone_builds", static_cast<double>(cache.cone_builds));
  count("cache_native_builds", static_cast<double>(cache.native_builds));
  count("cache_hits_total", static_cast<double>(hits));
  // Per-backend request counts, in map (lexicographic) order -- stable for
  // a given counter state.
  for (const auto& [backend, requests] : s.backend_requests) {
    doc.add(backend, "backend_requests", static_cast<double>(requests),
            "count");
  }
  return doc.render();
}

}  // namespace dwt::server
