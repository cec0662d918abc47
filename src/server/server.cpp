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
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "codec/codec.hpp"
#include "core/registry.hpp"
#include "dsp/dwt2d.hpp"
#include "hw/tile_scheduler.hpp"

namespace dwt::server {

namespace {

/// Full-buffer read; false on EOF, error, or a shutdown() wakeup.
bool read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (n > 0) {
    const ssize_t got = ::recv(fd, p, n, 0);
    if (got > 0) {
      p += got;
      n -= static_cast<std::size_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Full-buffer write; MSG_NOSIGNAL so a vanished client surfaces as an
/// error return instead of SIGPIPE.
bool write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (n > 0) {
    const ssize_t put = ::send(fd, p, n, MSG_NOSIGNAL);
    if (put > 0) {
      p += put;
      n -= static_cast<std::size_t>(put);
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

dsp::Image decode_image_payload(const Request& req) {
  if (req.format == PayloadFormat::kPgm) {
    // The hardened PGM validation path (truncated header/pixels, comment
    // handling, dimension and maxval caps) is the file reader's, verbatim.
    std::istringstream in(
        std::string(req.payload.begin(), req.payload.end()));
    return dsp::read_pgm(in, "request payload");
  }
  dsp::Image img(req.width, req.height);
  for (std::size_t i = 0; i < img.data().size(); ++i) {
    img.data()[i] = static_cast<double>(req.payload[i]);
  }
  return img;
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
  dsp::Image img;
  try {
    img = decode_image_payload(req);
  } catch (const std::exception& e) {
    return error_response(Status::kBadRequest, e.what());
  }
  Response resp;
  resp.op = req.op;
  resp.width = static_cast<std::uint16_t>(img.width());
  resp.height = static_cast<std::uint16_t>(img.height());
  try {
    switch (req.op) {
      case Op::kTileRoundTrip: {
        // Exactly `dwt97cli tile`: forward + inverse through the tile
        // pipeline, reconstruction back as P5 bytes.
        const hw::TileOptions opt = tile_options(req, backend);
        dsp::level_shift_forward(img);
        dsp::round_coefficients(img);
        (void)hw::tile_forward(img, opt);
        hw::TileOptions inv = opt;
        if (inv.backend != nullptr && !inv.backend->caps().inverse_2d) {
          inv.backend = nullptr;
        }
        (void)hw::tile_inverse(img, inv);
        dsp::level_shift_inverse(img);
        std::ostringstream out;
        dsp::write_pgm(img, out, "response");
        const std::string bytes = out.str();
        resp.payload.assign(bytes.begin(), bytes.end());
        return resp;
      }
      case Op::kForward: {
        const hw::TileOptions opt = tile_options(req, backend);
        dsp::level_shift_forward(img);
        dsp::round_coefficients(img);
        (void)hw::tile_forward(img, opt);
        resp.payload.resize(img.data().size() * 4);
        for (std::size_t i = 0; i < img.data().size(); ++i) {
          const auto v =
              static_cast<std::int32_t>(std::llround(img.data()[i]));
          const auto u = static_cast<std::uint32_t>(v);
          resp.payload[4 * i + 0] = static_cast<std::uint8_t>(u & 0xFF);
          resp.payload[4 * i + 1] = static_cast<std::uint8_t>((u >> 8) & 0xFF);
          resp.payload[4 * i + 2] =
              static_cast<std::uint8_t>((u >> 16) & 0xFF);
          resp.payload[4 * i + 3] = static_cast<std::uint8_t>(u >> 24);
        }
        return resp;
      }
      case Op::kCompress: {
        codec::EncodeOptions opt;
        opt.octaves = req.octaves;
        for (double& v : img.data()) v = std::round(v);
        resp.payload = codec::encode_image(img, opt).bytes;
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
  n_workers_ = options_.workers != 0
                   ? options_.workers
                   : std::max(1u, std::thread::hardware_concurrency());
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
  const std::vector<std::uint8_t> payload = encode_response(resp);
  // Length prefix and body go out in ONE send: a separate 4-byte segment
  // would interact with Nagle + delayed ACK on loopback and cap small-tile
  // throughput at ~25 req/s per connection.
  std::vector<std::uint8_t> frame;
  frame.reserve(4 + payload.size());
  const auto n = static_cast<std::uint32_t>(payload.size());
  frame.push_back(static_cast<std::uint8_t>(n & 0xFF));
  frame.push_back(static_cast<std::uint8_t>((n >> 8) & 0xFF));
  frame.push_back(static_cast<std::uint8_t>((n >> 16) & 0xFF));
  frame.push_back(static_cast<std::uint8_t>(n >> 24));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return write_all(fd, frame.data(), frame.size());
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
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back(&DwtServer::connection_loop, this, fd);
  }
}

void DwtServer::connection_loop(int fd) {
  for (;;) {
    std::uint8_t len_bytes[4];
    if (!read_exact(fd, len_bytes, 4)) break;  // clean EOF or reset
    const std::uint32_t len =
        static_cast<std::uint32_t>(len_bytes[0]) |
        (static_cast<std::uint32_t>(len_bytes[1]) << 8) |
        (static_cast<std::uint32_t>(len_bytes[2]) << 16) |
        (static_cast<std::uint32_t>(len_bytes[3]) << 24);
    if (len == 0 || len > kMaxFrameBytes) {
      // Framing is unrecoverable: answer, then close.
      metrics_.record_protocol_error();
      (void)send_response(
          fd, error_response(Status::kBadFrame,
                             "frame length " + std::to_string(len) +
                                 " outside 1.." +
                                 std::to_string(kMaxFrameBytes)));
      break;
    }
    std::vector<std::uint8_t> buf(len);
    if (!read_exact(fd, buf.data(), buf.size())) break;
    std::string parse_error;
    std::optional<Request> req =
        decode_request(buf.data(), buf.size(), &parse_error);
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
