// DwtServer: the repo's front door -- a concurrent tile-transform daemon
// over the cached execution backends.
//
// Shape: one listener (TCP on 127.0.0.1 or a Unix socket) accepting framed
// requests (server/protocol.hpp), one reader thread per connection, a
// bounded request queue with admission control (reject-with-status when
// full, reject-while-draining once shutdown begins), and a worker pool
// executing transforms.  Workers draw every elaboration/compilation
// artifact from the process-wide core::ArtifactCache, so the first request
// per (backend, design, opt-level, hardening) configuration pays the build
// and every later request -- on any worker -- hits cache.  Responses are
// computed with the exact pipeline `dwt97cli tile` runs (per-request
// single-threaded tile scheduling; the pool is the concurrency), so a
// response is byte-identical to the equivalent CLI invocation at every
// worker count.
//
// Shutdown is graceful: begin_drain() stops admitting work (new requests
// get Status::kShuttingDown), stop() then waits for the queue to empty and
// every in-flight transform to answer before joining the pool and closing
// the sockets.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/metrics.hpp"
#include "server/protocol.hpp"

namespace dwt::server {

struct ServerOptions {
  /// Non-empty: listen on this Unix socket path (created at start, removed
  /// at stop).  Empty: listen on TCP 127.0.0.1:tcp_port.
  std::string unix_socket_path;
  std::uint16_t tcp_port = 0;  ///< 0 = kernel-assigned; see port()
  unsigned workers = 0;        ///< 0 = hardware concurrency
  std::size_t queue_depth = 64;  ///< admission-control bound
  /// Test hook: start with the worker pool frozen (set_paused(false) to
  /// release) so queue-full and drain behavior can be exercised
  /// deterministically.
  bool start_paused = false;
};

/// Executes one transform request against the library -- the worker body,
/// exposed so tests and the load generator can compute expected responses
/// without a socket.  Invalid content (unknown backend, malformed PGM
/// payload via the hardened dsp::read_pgm checks, unsupported op) comes
/// back as a structured error response, never an exception.
[[nodiscard]] Response execute_request(const Request& req);

/// Metrics key for a request's backend ("default" for the in-thread
/// software path, the registry name otherwise).
[[nodiscard]] std::string backend_metrics_key(const Request& req);

class DwtServer {
 public:
  explicit DwtServer(ServerOptions options);
  ~DwtServer();

  DwtServer(const DwtServer&) = delete;
  DwtServer& operator=(const DwtServer&) = delete;

  /// Binds, listens and spawns the pool.  Throws std::runtime_error on
  /// socket errors (path too long, port in use, ...).
  void start();

  /// Stops admitting new work: queued and in-flight requests still finish,
  /// later ones are answered with Status::kShuttingDown.  Idempotent.
  void begin_drain();

  /// begin_drain(), then waits until every accepted request has been
  /// answered, joins workers and connection threads, closes sockets.
  /// Idempotent; also run by the destructor.
  void stop();

  /// Actual TCP port (after start(); useful with tcp_port = 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const std::string& socket_path() const {
    return options_.unix_socket_path;
  }
  [[nodiscard]] unsigned workers() const { return n_workers_; }
  [[nodiscard]] std::size_t queue_capacity() const {
    return options_.queue_depth;
  }
  [[nodiscard]] std::size_t queue_size() const;

  /// True once a kShutdown request has been received (the daemon's cue to
  /// call stop()) or drain has begun.
  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_requested_.load();
  }

  /// Test hook: freeze/unfreeze the worker pool (see
  /// ServerOptions::start_paused).  Unpause before stop() -- a paused pool
  /// cannot drain.
  void set_paused(bool paused);

  [[nodiscard]] MetricsSnapshot metrics() const { return metrics_.snapshot(); }
  [[nodiscard]] std::string metrics_json() const;

 private:
  struct WorkItem {
    Request request;
    std::chrono::steady_clock::time_point enqueued_at;
    std::promise<Response> promise;
  };

  void accept_loop();
  void connection_loop(int fd);
  void worker_loop();
  bool send_response(int fd, const Response& resp);
  /// Admission control: enqueue or answer with the rejection status.
  void submit(int fd, Request&& req);

  ServerOptions options_;
  unsigned n_workers_ = 0;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};  ///< wakes the accept poll on drain

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<WorkItem>> queue_;
  bool paused_ = false;
  std::atomic<bool> draining_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  std::mutex conn_mutex_;
  std::vector<int> conn_fds_;  ///< live connection sockets (for drain wakeup)
  std::vector<std::thread> conn_threads_;
  /// Readers that have closed their socket, joined at the next accept.
  std::vector<std::thread::id> finished_conns_;

  std::thread accept_thread_;
  std::vector<std::thread> worker_threads_;
  ServerMetrics metrics_;
};

}  // namespace dwt::server
