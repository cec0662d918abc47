#include "server/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>

namespace dwt::server {

namespace {

/// A frame's payload buffer grows by at most this much per read.
constexpr std::size_t kReadChunkBytes = std::size_t{64} << 10;

/// Full-buffer read; false on EOF, error, or a shutdown() wakeup.
bool recv_all(int fd, std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t got = ::recv(fd, p, n, 0);
    if (got > 0) {
      p += got;
      n -= static_cast<std::size_t>(got);
    } else if (got == 0 || errno != EINTR) {
      return false;
    }
  }
  return true;
}

int connect_addr(int family, const sockaddr* addr, socklen_t len) {
  const int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd, addr, len) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

bool write_frame(int fd, std::span<const std::uint8_t> head,
                 std::span<const std::uint8_t> tail) {
  const auto n = static_cast<std::uint32_t>(head.size() + tail.size());
  std::uint8_t prefix[4];
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<std::uint8_t>((n >> (8 * i)) & 0xFF);
  }
  iovec parts[3] = {
      {prefix, sizeof(prefix)},
      {const_cast<std::uint8_t*>(head.data()), head.size()},
      {const_cast<std::uint8_t*>(tail.data()), tail.size()}};
  msghdr msg{};
  msg.msg_iov = parts;
  msg.msg_iovlen = 3;
  while (msg.msg_iovlen > 0) {
    const ssize_t put = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (put <= 0) {
      if (put < 0 && errno == EINTR) continue;
      return false;
    }
    // Drop the parts the kernel took whole and resume inside the next one
    // (empty parts are dropped too).
    auto sent = static_cast<std::size_t>(put);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      iovec& part = *msg.msg_iov;
      part.iov_base = static_cast<std::uint8_t*>(part.iov_base) + sent;
      part.iov_len -= sent;
    }
  }
  return true;
}

FrameStatus read_frame(int fd, std::vector<std::uint8_t>* payload,
                       std::uint32_t* declared) {
  payload->clear();
  std::uint8_t header[4] = {};
  if (!recv_all(fd, header, 4)) return FrameStatus::kClosed;
  const std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
                            (static_cast<std::uint32_t>(header[1]) << 8) |
                            (static_cast<std::uint32_t>(header[2]) << 16) |
                            (static_cast<std::uint32_t>(header[3]) << 24);
  *declared = len;
  if (len == 0 || len > kMaxFrameBytes) return FrameStatus::kBadLength;
  while (payload->size() < len) {
    const std::size_t have = payload->size();
    const std::size_t want = std::min<std::size_t>(len, have + kReadChunkBytes);
    if (want > payload->capacity()) {
      // Geometric growth, capped at the declared length: the last step
      // ends at exactly `len`, not at the next power of two past it.
      payload->reserve(
          std::min<std::size_t>(len, std::max(want, 2 * payload->capacity())));
    }
    payload->resize(want);
    if (!recv_all(fd, payload->data() + have, payload->size() - have)) {
      return FrameStatus::kClosed;
    }
  }
  return FrameStatus::kOk;
}

int connect_endpoint(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) {
    const std::string path = spec.substr(5);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("bad unix socket path: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = connect_addr(AF_UNIX, reinterpret_cast<sockaddr*>(&addr),
                                sizeof(addr));
    if (fd < 0) throw std::runtime_error("cannot connect to " + path);
    return fd;
  }
  std::uint16_t port = 0;
  const char* end = spec.data() + spec.size();
  const auto [stop, ec] = std::from_chars(spec.data(), end, port);
  if (ec != std::errc{} || stop != end || port == 0) {
    throw std::runtime_error("bad --connect spec: " + spec +
                             " (want unix:PATH or a port number)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const int fd =
      connect_addr(AF_INET, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (fd < 0) throw std::runtime_error("cannot connect to 127.0.0.1:" + spec);
  // Request/response pairs are single segments; without this a Nagle +
  // delayed-ACK handshake can stall the tail of a large frame.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::optional<Response> exchange(int fd, const Request& req,
                                 std::string* error) {
  if (!write_frame(fd, encode_request(req))) {
    *error = "send failed (server gone?)";
    return std::nullopt;
  }
  std::vector<std::uint8_t> frame;
  std::uint32_t declared = 0;
  switch (read_frame(fd, &frame, &declared)) {
    case FrameStatus::kOk:
      break;
    case FrameStatus::kClosed:
      *error = "no response (server gone?)";
      return std::nullopt;
    case FrameStatus::kBadLength:
      *error = "bad response frame length " + std::to_string(declared);
      return std::nullopt;
  }
  std::string why;
  std::optional<Response> resp =
      decode_response(frame.data(), frame.size(), &why);
  if (!resp) *error = "undecodable response: " + why;
  return resp;
}

}  // namespace dwt::server
