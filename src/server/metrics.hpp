// Serving metrics for dwt97d: request/rejection counters, per-backend
// request counts, and a log-bucketed latency histogram that answers
// p50/p99/mean without storing per-request samples (bounded memory at any
// request rate).  A snapshot renders as the repo's byte-stable flat record
// JSON (common::JsonRecordWriter) under the document name "dwt97d_metrics";
// the values are runtime-dependent, but key order and number formatting are
// stable, so two snapshots of identical counter state are byte-identical
// and the record keys are pinned by bench/schema.md.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "core/artifact_cache.hpp"

namespace dwt::server {

struct MetricsSnapshot {
  std::uint64_t requests_total = 0;  ///< accepted into the queue
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_error = 0;  ///< handled, non-ok status
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_shutting_down = 0;
  std::uint64_t protocol_errors = 0;  ///< unparseable frames answered
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_mean_us = 0.0;
  std::map<std::string, std::uint64_t> backend_requests;
};

class ServerMetrics {
 public:
  /// A request completed successfully after `latency_us` microseconds of
  /// queue wait + transform time.  `backend_key` is the registry backend
  /// name, or "default" for the in-thread software path.
  void record_ok(const std::string& backend_key, std::uint64_t latency_us);

  /// A request was handled but answered with an error status.
  void record_error();

  void record_rejected_queue_full();
  void record_rejected_shutting_down();
  void record_protocol_error();

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Byte-stable JSON document of the snapshot plus live queue/cache state.
  /// `queue_depth` is the current queue occupancy, `queue_capacity`,
  /// `workers` and `tile_threads` (the threads each transform lifts on) the
  /// server configuration, `cache` the shared ArtifactCache counters (hit
  /// rate = hits / (hits + builds) over every artifact kind).
  [[nodiscard]] std::string render_json(std::size_t queue_depth,
                                        std::size_t queue_capacity,
                                        unsigned workers,
                                        unsigned tile_threads,
                                        const core::CacheStats& cache) const;

 private:
  /// Exponential buckets: bucket b holds latencies whose bit width is b,
  /// i.e. [2^(b-1), 2^b - 1] microseconds (bucket 0 = exactly 0).
  static constexpr std::size_t kBuckets = 64;

  [[nodiscard]] double percentile_locked(double q) const;

  mutable std::mutex mutex_;
  std::uint64_t requests_ok_ = 0;
  std::uint64_t requests_error_ = 0;
  std::uint64_t rejected_queue_full_ = 0;
  std::uint64_t rejected_shutting_down_ = 0;
  std::uint64_t protocol_errors_ = 0;
  std::uint64_t latency_sum_us_ = 0;
  std::array<std::uint64_t, kBuckets> latency_buckets_{};
  std::map<std::string, std::uint64_t> backend_requests_;
};

}  // namespace dwt::server
