// DwtServer: the repo's front door -- a concurrent tile-transform daemon
// over the cached execution backends.
//
// Shape: one listener (TCP on 127.0.0.1 or a Unix socket) accepting framed
// requests (server/protocol.hpp) and one thread per connection, the only
// thread its requests touch.  With one request in flight per connection,
// that thread decodes it, takes a FIFO ticket at the admission gate
// (reject-with-status once `queue_depth` tickets wait, reject-while-
// draining once shutdown begins; at most `workers` transforms run at
// once), runs it, frees its slot and only then writes the answer: a client
// slow to read holds its own thread, never a transform slot.  Transforms
// draw every elaboration/compilation artifact from the process-wide
// core::ArtifactCache, so the first request per (backend, design,
// opt-level, hardening) configuration pays the build and every later one
// hits cache.  Responses are computed with the exact pipeline `dwt97cli
// tile` runs, each admitted transform lifting its tiles on its share of the
// hardware threads (tile_thread_share); tile output does not depend on the
// thread count, so a response is byte-identical to the equivalent CLI
// invocation at every worker count.
//
// Shutdown is graceful: begin_drain() stops admitting work (new requests
// get Status::kShuttingDown), stop() then waits for every taken ticket's
// transform to finish before closing the sockets.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "server/metrics.hpp"
#include "server/protocol.hpp"

namespace dwt::server {

struct ServerOptions {
  /// Non-empty: listen on this Unix socket path (created at start, removed
  /// at stop).  Empty: listen on TCP 127.0.0.1:tcp_port.
  std::string unix_socket_path;
  std::uint16_t tcp_port = 0;  ///< 0 = kernel-assigned; see port()
  unsigned workers = 0;  ///< concurrent transforms; 0 = hardware concurrency
  std::size_t queue_depth = 64;  ///< admission-control bound
  /// Test hook: start with the admission gate held -- requests take
  /// tickets but none runs until set_paused(false) -- so queue-full and
  /// drain behavior can be exercised deterministically.
  bool start_paused = false;
};

/// Executes one transform request against the library -- what a connection
/// runs once admitted, exposed so tests and the load generator can compute
/// expected responses without a socket.  Its tiles lift on `tile_threads`
/// threads; the answer is the same at every count.  Invalid content
/// (unknown backend, malformed PGM payload via the hardened dsp::pgm_pixels
/// checks, unsupported op, a frame wider or taller than 256 pixels for a
/// gate-level backend) comes back as a structured error response, never an
/// exception.
[[nodiscard]] Response execute_request(const Request& req,
                                       unsigned tile_threads = 1);

/// The threads each admitted transform lifts its tiles on when `workers`
/// transforms share `hardware_threads`: max(1, hardware_threads / workers).
[[nodiscard]] unsigned tile_thread_share(unsigned hardware_threads,
                                         unsigned workers);

/// Metrics key for a request's backend ("default" for the in-thread
/// software path, the registry name otherwise).
[[nodiscard]] std::string backend_metrics_key(const Request& req);

class DwtServer {
 public:
  explicit DwtServer(ServerOptions options);
  ~DwtServer();

  DwtServer(const DwtServer&) = delete;
  DwtServer& operator=(const DwtServer&) = delete;

  /// Binds, listens and starts the accept thread.  Throws
  /// std::runtime_error on socket errors (path too long, port in use, ...).
  void start();

  /// Stops admitting new work: waiting and running requests still finish,
  /// later ones are answered with Status::kShuttingDown.  Idempotent.
  void begin_drain();

  /// begin_drain(), then waits until every admitted transform has finished,
  /// shuts the connection sockets, joins the connection threads and closes
  /// the listener.  Idempotent; also run by the destructor.
  void stop();

  /// Actual TCP port (after start(); useful with tcp_port = 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const std::string& socket_path() const {
    return options_.unix_socket_path;
  }
  [[nodiscard]] unsigned workers() const { return n_workers_; }
  /// Threads per admitted transform: tile_thread_share of the host's
  /// hardware threads among the workers.
  [[nodiscard]] unsigned tile_threads() const { return tile_threads_; }
  [[nodiscard]] std::size_t queue_capacity() const {
    return options_.queue_depth;
  }
  [[nodiscard]] std::size_t queue_size() const;

  /// True once a kShutdown request has been received (the daemon's cue to
  /// call stop()) or drain has begun.
  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_requested_.load();
  }

  /// Test hook: hold/release the admission gate (see
  /// ServerOptions::start_paused).  Unpause before stop() -- a held gate
  /// cannot drain.
  void set_paused(bool paused);

  [[nodiscard]] MetricsSnapshot metrics() const { return metrics_.snapshot(); }
  [[nodiscard]] std::string metrics_json() const;

 private:
  /// A live connection and its thread.  fd is -1 once the client has gone
  /// and the socket is closed; the accept loop then joins the thread.
  struct Connection {
    Connection() = default;
    Connection(Connection&&) = delete;  // its thread holds its address
    int fd = -1;
    std::thread thread;
  };

  void accept_loop();
  void connection_loop(Connection* conn);
  /// Admission control, the transform and its metrics: the answer to a
  /// transform request, or the rejection status when it is not admitted.
  Response run_transform(const Request& req);

  ServerOptions options_;
  unsigned n_workers_ = 0;
  unsigned tile_threads_ = 1;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};  ///< wakes the accept poll on stop

  /// The admission gate: tickets are admitted in the order they were
  /// taken, at most n_workers_ running at once and none while paused.
  mutable std::mutex gate_mutex_;
  std::condition_variable gate_cv_;
  std::uint64_t tickets_taken_ = 0;
  std::uint64_t tickets_admitted_ = 0;
  unsigned running_ = 0;
  bool paused_ = false;
  bool draining_ = false;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  ServerMetrics metrics_;

  std::mutex conn_mutex_;
  std::list<Connection> conns_;
  std::thread accept_thread_;
};

}  // namespace dwt::server
