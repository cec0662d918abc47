// The one worker pool behind the library's data-parallel loops (the tile
// scheduler's tiles, a fault campaign's trial batches) and the one reading
// of a "0 threads" setting.  Workers claim items through one atomic counter,
// so which worker runs an item never matters to a caller that writes each
// item's result to its own slot; the first exception any worker throws is
// rethrown on the calling thread once every worker has stopped.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace dwt::common {

/// `threads`, or the hardware concurrency (at least 1) when it is 0.
[[nodiscard]] inline unsigned resolve_threads(unsigned threads) {
  return threads != 0 ? threads
                      : std::max(1u, std::thread::hardware_concurrency());
}

/// Runs every item of [0, items) on min(resolve_threads(threads), items)
/// workers; one worker runs inline on the calling thread.  `make_worker()`
/// runs once per worker and returns the function that worker calls for each
/// item it claims, so per-worker state (a simulator session, say) lives in
/// its captures.  Returns the worker count used, at least 1.
template <class MakeWorker>
unsigned run_pool(std::size_t items, unsigned threads, MakeWorker make_worker) {
  const auto n_threads = static_cast<unsigned>(
      std::min<std::size_t>(resolve_threads(threads), items));
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto worker = [&]() {
    try {
      auto work = make_worker();
      for (std::size_t i = next.fetch_add(1); i < items;
           i = next.fetch_add(1)) {
        work(i);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };
  if (n_threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (unsigned i = 0; i < n_threads; ++i) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  return std::max(1u, n_threads);
}

}  // namespace dwt::common
