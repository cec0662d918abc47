#include "server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "codec/codec.hpp"
#include "common/worker_pool.hpp"
#include "core/registry.hpp"
#include "dsp/image.hpp"
#include "hw/tile_scheduler.hpp"
#include "server/transport.hpp"

namespace dwt::server {

namespace {

/// Widest and tallest frame a gate-level backend transforms per request.
/// Simulating the netlist costs microseconds per pixel and more, so one
/// request could otherwise hold a transform slot for minutes;
/// `dwt97cli tile` runs any size.
constexpr std::size_t kGateLevelMaxSide = 256;

/// The request's validated pixels.  A PGM payload goes through the one
/// hardened parser (truncated header/pixels, comment handling, dimension
/// and maxval caps); a P2 payload's pixels are decoded into `*decoded`.
dsp::PlaneView<const std::uint8_t> request_pixels(
    const Request& req, std::vector<std::uint8_t>* decoded) {
  if (req.format == PayloadFormat::kPgm) {
    return dsp::pgm_pixels(req.payload, "request payload", decoded);
  }
  return dsp::u8_view(req.payload, req.width, req.height);
}

std::int32_t to_i32(std::int32_t v) { return v; }
std::int32_t to_i32(double v) { return dsp::round_to_int32(v); }

/// The `forward` op's answer: the level-shifted plane (an int32 plane for
/// integer-valued engines, an Image for the others) through the tile
/// forward, one i32 LE per coefficient, row-major.
template <class P>
std::vector<std::uint8_t> forward_payload(P plane, const hw::TileOptions& opt) {
  (void)hw::tile_forward(plane, opt);
  std::vector<std::uint8_t> out(plane.data().size() * 4);
  std::uint8_t* o = out.data();
  for (const auto v : plane.data()) {
    const auto u = static_cast<std::uint32_t>(to_i32(v));
    for (int b = 0; b < 4; ++b) *o++ = static_cast<std::uint8_t>(u >> (8 * b));
  }
  return out;
}

hw::TileOptions tile_options(const Request& req,
                             const core::ExecutionBackend* backend,
                             unsigned tile_threads) {
  hw::TileOptions opt;
  opt.method = dsp::Method::kLiftingFixed;
  opt.octaves = req.octaves;
  opt.tile_w = opt.tile_h = req.tile != 0 ? req.tile : 64;
  // Tile output is byte-identical at every thread count, so the request's
  // share of the host matches the CLI's run at any --threads byte for byte.
  opt.threads = tile_threads;
  opt.backend = backend;
  opt.design = req.design;
  opt.opt_level = req.opt_level;
  // Requests always run the fastest execution tier the host supports
  // (kAuto); the DWT_EXEC_TIER environment variable on the daemon is the
  // operational kill-switch back to the interpreter.  Tier choice never
  // changes response bytes, so this is invisible to clients.
  opt.exec_tier = rtl::compiled::ExecTier::kAuto;
  return opt;
}

/// Writes `resp` as one frame: its header and its payload go out as two
/// parts of one send, so the payload (up to a whole 4K PGM) is never copied.
bool send_response(int fd, const Response& resp) {
  return write_frame(fd, response_header(resp).view(), resp.payload);
}

}  // namespace

std::string backend_metrics_key(const Request& req) {
  return req.backend.empty() ? std::string("default") : req.backend;
}

unsigned tile_thread_share(unsigned hardware_threads, unsigned workers) {
  return std::max(1u, hardware_threads / std::max(1u, workers));
}

Response execute_request(const Request& req, unsigned tile_threads) {
  const core::ExecutionBackend* backend = nullptr;
  if (!req.backend.empty()) {
    backend = core::find_backend(req.backend);
    if (backend == nullptr) {
      return error_response(Status::kBadRequest,
                            "unknown backend: " + req.backend +
                                " (have: " + core::backend_names() + ")");
    }
  }
  std::vector<std::uint8_t> decoded;
  dsp::PlaneView<const std::uint8_t> pixels;
  try {
    pixels = request_pixels(req, &decoded);
  } catch (const std::exception& e) {
    return error_response(Status::kBadRequest, e.what());
  }
  const bool transform_op =
      req.op == Op::kTileRoundTrip || req.op == Op::kForward;
  if (transform_op && backend != nullptr && backend->caps().gate_level &&
      (pixels.width > kGateLevelMaxSide ||
       pixels.height > kGateLevelMaxSide)) {
    const std::string side = std::to_string(kGateLevelMaxSide);
    return error_response(
        Status::kBadRequest,
        "gate-level backend " + req.backend + " serves frames up to " + side +
            "x" + side + " pixels (got " + std::to_string(pixels.width) +
            "x" + std::to_string(pixels.height) +
            "); run `dwt97cli tile` for larger frames");
  }
  Response resp;
  resp.op = req.op;
  resp.width = static_cast<std::uint16_t>(pixels.width);
  resp.height = static_cast<std::uint16_t>(pixels.height);
  try {
    switch (req.op) {
      case Op::kTileRoundTrip:
        // Exactly `dwt97cli tile`: the one-pass round trip, pixels in,
        // P5 document out.
        resp.payload =
            hw::tile_round_trip(pixels, tile_options(req, backend, tile_threads))
                .pgm;
        return resp;
      case Op::kForward: {
        const hw::TileOptions opt = tile_options(req, backend, tile_threads);
        dsp::Plane<std::int32_t> plane = dsp::u8_plane(pixels, dsp::kLevelShift);
        resp.payload = hw::integer_valued(opt)
                           ? forward_payload(std::move(plane), opt)
                           : forward_payload(dsp::to_image(plane), opt);
        return resp;
      }
      case Op::kCompress: {
        codec::EncodeOptions opt;
        opt.octaves = req.octaves;
        resp.payload =
            codec::encode_image(dsp::to_image(dsp::u8_plane(pixels)), opt).bytes;
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
  tile_threads_ = tile_thread_share(common::resolve_threads(0), n_workers_);
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
  accept_thread_ = std::thread(&DwtServer::accept_loop, this);
}

void DwtServer::begin_drain() {
  {
    const std::lock_guard<std::mutex> lock(gate_mutex_);
    draining_ = true;
  }
  shutdown_requested_.store(true);
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
  // Every ticket taken before the drain is admitted and runs to the end.
  {
    std::unique_lock<std::mutex> lock(gate_mutex_);
    gate_cv_.wait(lock, [this] {
      return tickets_admitted_ == tickets_taken_ && running_ == 0;
    });
  }
  // Wake connection threads blocked on their client's next frame.  With
  // the accept thread joined, only the connection threads still touch the
  // list, and each changes nothing but its own fd, under the lock.
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const Connection& c : conns_) {
      if (c.fd >= 0) ::shutdown(c.fd, SHUT_RDWR);
    }
  }
  for (Connection& c : conns_) c.thread.join();
  conns_.clear();
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
  const std::lock_guard<std::mutex> lock(gate_mutex_);
  return static_cast<std::size_t>(tickets_taken_ - tickets_admitted_);
}

void DwtServer::set_paused(bool paused) {
  {
    const std::lock_guard<std::mutex> lock(gate_mutex_);
    paused_ = paused;
  }
  gate_cv_.notify_all();
}

std::string DwtServer::metrics_json() const {
  return metrics_.render_json(queue_size(), options_.queue_depth, n_workers_,
                              tile_threads_,
                              core::ArtifactCache::instance().stats());
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
      if (errno == EBADF || errno == EINVAL || errno == ENOTSOCK) return;
      // Out of descriptors or memory (EMFILE, ENFILE, ENOBUFS, ENOMEM), or
      // a network error of the pending connection.  That connection keeps
      // the listener readable, so wait 50 ms on the stop pipe alone, then
      // retry.
      pollfd stop = {stop_pipe_[0], POLLIN, 0};
      if (::poll(&stop, 1, 50) > 0) return;  // stop() began
      continue;
    }
    if (options_.unix_socket_path.empty()) {
      // Request/response pairs are single small segments; without this a
      // Nagle + delayed-ACK handshake serializes each exchange at ~40 ms.
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    // Join the threads whose clients have gone, so a finished connection
    // does not keep its thread stack mapped until stop().
    conns_.remove_if([](Connection& c) {
      if (c.fd >= 0) return false;
      c.thread.join();
      return true;
    });
    Connection& conn = conns_.emplace_back();
    conn.fd = fd;
    conn.thread = std::thread(&DwtServer::connection_loop, this, &conn);
  }
}

void DwtServer::connection_loop(Connection* conn) {
  const int fd = conn->fd;
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
    // The request's payload takes over the frame's buffer (up to a whole
    // 4K PGM) rather than copying it.
    std::optional<Request> req = decode_request(std::move(buf), &parse_error);
    Response resp;
    if (!req) {
      // The frame boundary is intact, so the connection survives a
      // malformed request: structured error, then keep reading.
      metrics_.record_protocol_error();
      resp = error_response(Status::kBadFrame,
                            "bad request frame: " + parse_error);
    } else if (req->op == Op::kMetrics) {
      resp.op = Op::kMetrics;
      const std::string json = metrics_json();
      resp.payload.assign(json.begin(), json.end());
    } else if (req->op == Op::kShutdown) {
      resp.op = Op::kShutdown;
      shutdown_requested_.store(true);
    } else {
      // One outstanding request per connection: responses stay in request
      // order without per-request IDs, and concurrency comes from the
      // number of connections (the load generator opens many).
      resp = run_transform(*req);
    }
    if (!send_response(fd, resp)) break;
  }
  const std::lock_guard<std::mutex> lock(conn_mutex_);
  ::close(fd);
  conn->fd = -1;
}

Response DwtServer::run_transform(const Request& req) {
  const auto arrived = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(gate_mutex_);
    if (draining_) {
      lock.unlock();
      metrics_.record_rejected_shutting_down();
      return error_response(Status::kShuttingDown, "server is draining");
    }
    if (tickets_taken_ - tickets_admitted_ >= options_.queue_depth) {
      lock.unlock();
      metrics_.record_rejected_queue_full();
      return error_response(Status::kQueueFull,
                            "request queue is full (depth " +
                                std::to_string(options_.queue_depth) + ")");
    }
    const std::uint64_t ticket = tickets_taken_++;
    gate_cv_.wait(lock, [&] {
      return ticket == tickets_admitted_ && !paused_ &&
             running_ < n_workers_;
    });
    ++tickets_admitted_;
    ++running_;
  }
  gate_cv_.notify_all();  // the next ticket may fit too
  Response resp;
  try {
    resp = execute_request(req, tile_threads_);
  } catch (const std::exception& e) {
    resp = error_response(Status::kInternalError, e.what());
  }
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - arrived)
                      .count();
  if (resp.status == Status::kOk) {
    metrics_.record_ok(backend_metrics_key(req),
                       static_cast<std::uint64_t>(us));
  } else {
    metrics_.record_error();
  }
  {
    const std::lock_guard<std::mutex> lock(gate_mutex_);
    --running_;
  }
  gate_cv_.notify_all();
  return resp;
}

}  // namespace dwt::server
