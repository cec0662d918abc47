#include "server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "codec/codec.hpp"
#include "common/worker_pool.hpp"
#include "core/registry.hpp"
#include "dsp/image.hpp"
#include "hw/tile_scheduler.hpp"
#include "server/transport.hpp"

namespace dwt::server {

namespace {

/// The JPEG2000 DC level shift: 8-bit samples become signed around zero.
constexpr std::int32_t kLevelShift = 128;

/// The request's pixels as an int32 plane, each stored as v - offset.  A
/// PGM payload goes through the one hardened parser (truncated
/// header/pixels, comment handling, dimension and maxval caps).
dsp::Plane<std::int32_t> decode_plane(const Request& req,
                                      std::int32_t offset) {
  if (req.format == PayloadFormat::kPgm) {
    return dsp::parse_pgm(req.payload, "request payload", offset);
  }
  return dsp::u8_plane(req.payload, req.width, req.height, offset);
}

std::int32_t to_i32(std::int32_t v) { return v; }
std::int32_t to_i32(double v) { return dsp::round_to_int32(v); }

/// One i32 LE per coefficient, row-major.
template <class P>
std::vector<std::uint8_t> pack_i32_le(const P& plane) {
  std::vector<std::uint8_t> out(plane.data().size() * 4);
  std::uint8_t* o = out.data();
  for (const auto v : plane.data()) {
    const auto u = static_cast<std::uint32_t>(to_i32(v));
    for (int b = 0; b < 4; ++b) *o++ = static_cast<std::uint8_t>(u >> (8 * b));
  }
  return out;
}

/// The `tile` and `forward` ops over a level-shifted plane: an int32 plane
/// for integer-valued engines, an Image for the others.
template <class P>
Response serve_transform(const Request& req, const hw::TileOptions& opt,
                         P& plane, Response resp) {
  if (req.op == Op::kForward) {
    (void)hw::tile_forward(plane, opt);
    resp.payload = pack_i32_le(plane);
  } else {
    // Exactly `dwt97cli tile`: forward + inverse through the tile
    // pipeline, reconstruction back as P5 bytes.
    (void)hw::tile_round_trip(plane, opt);
    resp.payload = dsp::render_pgm(plane, kLevelShift);
  }
  return resp;
}

hw::TileOptions tile_options(const Request& req,
                             const core::ExecutionBackend* backend) {
  hw::TileOptions opt;
  opt.method = dsp::Method::kLiftingFixed;
  opt.octaves = req.octaves;
  opt.tile_w = opt.tile_h = req.tile != 0 ? req.tile : 64;
  // The pool is the concurrency: one in-request thread keeps workers
  // independent, and tile output is byte-identical at every thread count,
  // so this still matches the CLI's default-threaded run byte for byte.
  opt.threads = 1;
  opt.backend = backend;
  opt.design = req.design;
  opt.opt_level = req.opt_level;
  // Workers always run the fastest execution tier the host supports
  // (kAuto); the DWT_EXEC_TIER environment variable on the daemon is the
  // operational kill-switch back to the interpreter.  Tier choice never
  // changes response bytes, so this is invisible to clients.
  opt.exec_tier = rtl::compiled::ExecTier::kAuto;
  return opt;
}

}  // namespace

std::string backend_metrics_key(const Request& req) {
  return req.backend.empty() ? std::string("default") : req.backend;
}

Response execute_request(const Request& req) {
  const core::ExecutionBackend* backend = nullptr;
  if (!req.backend.empty()) {
    backend = core::find_backend(req.backend);
    if (backend == nullptr) {
      return error_response(Status::kBadRequest,
                            "unknown backend: " + req.backend +
                                " (have: " + core::backend_names() + ")");
    }
  }
  const bool transform_op =
      req.op == Op::kTileRoundTrip || req.op == Op::kForward;
  dsp::Plane<std::int32_t> plane;
  try {
    plane = decode_plane(req, transform_op ? kLevelShift : 0);
  } catch (const std::exception& e) {
    return error_response(Status::kBadRequest, e.what());
  }
  Response resp;
  resp.op = req.op;
  resp.width = static_cast<std::uint16_t>(plane.width());
  resp.height = static_cast<std::uint16_t>(plane.height());
  try {
    switch (req.op) {
      case Op::kTileRoundTrip:
      case Op::kForward: {
        const hw::TileOptions opt = tile_options(req, backend);
        if (hw::integer_valued(opt)) {
          return serve_transform(req, opt, plane, resp);
        }
        dsp::Image img = dsp::to_image(plane);
        return serve_transform(req, opt, img, resp);
      }
      case Op::kCompress: {
        codec::EncodeOptions opt;
        opt.octaves = req.octaves;
        resp.payload = codec::encode_image(dsp::to_image(plane), opt).bytes;
        return resp;
      }
      case Op::kMetrics:
      case Op::kShutdown:
        break;
    }
  } catch (const std::invalid_argument& e) {
    return error_response(Status::kBadRequest, e.what());
  } catch (const std::exception& e) {
    return error_response(Status::kInternalError, e.what());
  }
  return error_response(Status::kBadRequest,
                        "control op is not a transform request");
}

DwtServer::DwtServer(ServerOptions options) : options_(std::move(options)) {
  n_workers_ = common::resolve_threads(options_.workers);
  if (options_.queue_depth == 0) {
    throw std::invalid_argument("DwtServer: queue depth must be nonzero");
  }
  paused_ = options_.start_paused;
}

DwtServer::~DwtServer() { stop(); }

void DwtServer::start() {
  if (started_.exchange(true)) {
    throw std::logic_error("DwtServer::start: already started");
  }
  if (::pipe(stop_pipe_) != 0) {
    throw std::runtime_error("DwtServer: pipe() failed");
  }
  if (!options_.unix_socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("DwtServer: unix socket path too long");
    }
    std::memcpy(addr.sun_path, options_.unix_socket_path.c_str(),
                options_.unix_socket_path.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("DwtServer: socket() failed");
    ::unlink(options_.unix_socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw std::runtime_error("DwtServer: cannot bind " +
                               options_.unix_socket_path);
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("DwtServer: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.tcp_port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw std::runtime_error("DwtServer: cannot bind 127.0.0.1:" +
                               std::to_string(options_.tcp_port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, SOMAXCONN) != 0) {
    throw std::runtime_error("DwtServer: listen() failed");
  }
  worker_threads_.reserve(n_workers_);
  for (unsigned i = 0; i < n_workers_; ++i) {
    worker_threads_.emplace_back(&DwtServer::worker_loop, this);
  }
  accept_thread_ = std::thread(&DwtServer::accept_loop, this);
}

void DwtServer::begin_drain() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    draining_.store(true);
  }
  shutdown_requested_.store(true);
  queue_cv_.notify_all();
  // The listener stays open: clients arriving during the drain get a
  // structured kShuttingDown answer instead of a silently dropped
  // connection.  Only stop() tears the accept loop down.
}

void DwtServer::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  begin_drain();
  if (stop_pipe_[1] >= 0) {
    const char wake = 'q';
    (void)!::write(stop_pipe_[1], &wake, 1);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Workers exit once the queue is drained; every accepted request has its
  // promise fulfilled by then.
  queue_cv_.notify_all();
  for (std::thread& t : worker_threads_) t.join();
  // Wake connection readers blocked on their client's next frame.
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::vector<std::thread> conns;
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    conns.swap(conn_threads_);
  }
  for (std::thread& t : conns) t.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : stop_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  if (!options_.unix_socket_path.empty()) {
    ::unlink(options_.unix_socket_path.c_str());
  }
}

std::size_t DwtServer::queue_size() const {
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  return queue_.size();
}

void DwtServer::set_paused(bool paused) {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    paused_ = paused;
  }
  queue_cv_.notify_all();
}

std::string DwtServer::metrics_json() const {
  return metrics_.render_json(queue_size(), options_.queue_depth, n_workers_,
                              core::ArtifactCache::instance().stats());
}

bool DwtServer::send_response(int fd, const Response& resp) {
  return write_frame(fd, encode_response(resp));
}

void DwtServer::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int r = ::poll(fds, 2, -1);
    if (r < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0) return;  // stop() began
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;
    }
    if (options_.unix_socket_path.empty()) {
      // Request/response pairs are single small segments; without this a
      // Nagle + delayed-ACK handshake serializes each exchange at ~40 ms.
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    // Join the readers whose clients have gone, so a finished connection
    // does not keep its thread stack mapped until stop().
    for (const std::thread::id id : finished_conns_) {
      const auto it = std::find_if(
          conn_threads_.begin(), conn_threads_.end(),
          [id](const std::thread& t) { return t.get_id() == id; });
      it->join();
      conn_threads_.erase(it);
    }
    finished_conns_.clear();
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back(&DwtServer::connection_loop, this, fd);
  }
}

void DwtServer::connection_loop(int fd) {
  for (;;) {
    std::vector<std::uint8_t> buf;
    std::uint32_t len = 0;
    const FrameStatus got = read_frame(fd, &buf, &len);
    if (got == FrameStatus::kClosed) break;  // clean EOF or reset
    if (got == FrameStatus::kBadLength) {
      // Framing is unrecoverable: answer, then close.
      metrics_.record_protocol_error();
      (void)send_response(
          fd, error_response(Status::kBadFrame,
                             "frame length " + std::to_string(len) +
                                 " outside 1.." +
                                 std::to_string(kMaxFrameBytes)));
      break;
    }
    std::string parse_error;
    std::optional<Request> req =
        decode_request(buf.data(), buf.size(), &parse_error);
    // The request owns a copy of its payload: free the raw frame (up to a
    // whole 4K PGM) before the connection waits for the worker's answer.
    std::vector<std::uint8_t>().swap(buf);
    if (!req) {
      // The frame boundary is intact, so the connection survives a
      // malformed request: structured error, then keep reading.
      metrics_.record_protocol_error();
      if (!send_response(fd, error_response(Status::kBadFrame,
                                            "bad request frame: " +
                                                parse_error))) {
        break;
      }
      continue;
    }
    if (req->op == Op::kMetrics) {
      Response resp;
      resp.status = Status::kOk;
      resp.op = Op::kMetrics;
      const std::string json = metrics_json();
      resp.payload.assign(json.begin(), json.end());
      if (!send_response(fd, resp)) break;
      continue;
    }
    if (req->op == Op::kShutdown) {
      Response resp;
      resp.status = Status::kOk;
      resp.op = Op::kShutdown;
      shutdown_requested_.store(true);
      if (!send_response(fd, resp)) break;
      continue;
    }
    submit(fd, std::move(*req));
  }
  const std::lock_guard<std::mutex> lock(conn_mutex_);
  conn_fds_.erase(std::find(conn_fds_.begin(), conn_fds_.end(), fd));
  ::close(fd);
  finished_conns_.push_back(std::this_thread::get_id());
}

void DwtServer::submit(int fd, Request&& req) {
  auto item = std::make_shared<WorkItem>();
  item->request = std::move(req);
  item->enqueued_at = std::chrono::steady_clock::now();
  std::future<Response> result = item->promise.get_future();
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (draining_.load()) {
      lock.unlock();
      metrics_.record_rejected_shutting_down();
      (void)send_response(
          fd, error_response(Status::kShuttingDown, "server is draining"));
      return;
    }
    if (queue_.size() >= options_.queue_depth) {
      lock.unlock();
      metrics_.record_rejected_queue_full();
      (void)send_response(
          fd, error_response(Status::kQueueFull,
                             "request queue is full (depth " +
                                 std::to_string(options_.queue_depth) + ")"));
      return;
    }
    queue_.push_back(item);
  }
  queue_cv_.notify_one();
  // One outstanding request per connection: responses stay in request
  // order without per-request IDs, and concurrency comes from the number
  // of connections (the load generator opens many).
  (void)send_response(fd, result.get());
}

void DwtServer::worker_loop() {
  for (;;) {
    std::shared_ptr<WorkItem> item;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return (!queue_.empty() && !paused_) ||
               (draining_.load() && queue_.empty());
      });
      if (queue_.empty()) return;  // draining and fully drained
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    Response resp;
    try {
      resp = execute_request(item->request);
    } catch (const std::exception& e) {
      resp = error_response(Status::kInternalError, e.what());
    }
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - item->enqueued_at)
                        .count();
    if (resp.status == Status::kOk) {
      metrics_.record_ok(backend_metrics_key(item->request),
                         static_cast<std::uint64_t>(us));
    } else {
      metrics_.record_error();
    }
    item->promise.set_value(std::move(resp));
  }
}

}  // namespace dwt::server
