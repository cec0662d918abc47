#include "common/worker_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dwt::common {
namespace {

TEST(WorkerPool, RunsOneWorkerPerThreadUpToTheItemsOneOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  struct Case {
    std::size_t items;
    unsigned threads;
  };
  for (const Case c : {Case{5, 1}, Case{2, 4}, Case{4, 4}, Case{50, 3}}) {
    std::mutex mutex;
    std::vector<std::thread::id> workers;
    const unsigned used = run_pool(c.items, c.threads, [&]() {
      const std::lock_guard<std::mutex> lock(mutex);
      workers.push_back(std::this_thread::get_id());
      return [](std::size_t) {};
    });
    const std::size_t want = std::min<std::size_t>(c.threads, c.items);
    EXPECT_EQ(used, want) << c.items << " items, " << c.threads << " threads";
    ASSERT_EQ(workers.size(), want);
    EXPECT_EQ(std::count(workers.begin(), workers.end(), caller), 1)
        << c.items << " items, " << c.threads << " threads";
  }
}

TEST(WorkerPool, RunsEveryItemExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    std::vector<std::atomic<int>> runs(1000);
    (void)run_pool(runs.size(), threads, [&]() {
      return [&](std::size_t i) { runs[i].fetch_add(1); };
    });
    for (std::size_t i = 0; i < runs.size(); ++i) {
      ASSERT_EQ(runs[i].load(), 1) << "item " << i << ", " << threads
                                   << " threads";
    }
  }
}

// A worker that throws stops claiming items; the others run on, and the
// caller sees the exception only once every worker has returned.
TEST(WorkerPool, RethrowsTheFirstErrorAfterEveryWorkerStopped) {
  std::atomic<int> started{0};
  std::atomic<int> stopped{0};
  // Counts a worker as stopped when its work function is destroyed.
  struct Stop {
    explicit Stop(std::atomic<int>& n) : count(n) {}
    ~Stop() { count.fetch_add(1); }
    std::atomic<int>& count;
  };
  try {
    (void)run_pool(8, 4, [&]() {
      started.fetch_add(1);
      return [stop = std::make_shared<Stop>(stopped)](std::size_t i) {
        (void)stop;
        if (i == 0) throw std::runtime_error("item 0 failed");
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      };
    });
    ADD_FAILURE() << "run_pool returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "item 0 failed");
  }
  EXPECT_EQ(started.load(), 4);
  EXPECT_EQ(stopped.load(), 4);
}

}  // namespace
}  // namespace dwt::common
