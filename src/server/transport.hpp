// dwt97d frame transport: the one reader and writer of the length-prefixed
// frames the wire protocol (server/protocol.hpp) rides on, shared by the
// server, the dwt97d client, the serving bench and the tests.
//
// A frame is a little-endian u32 payload length followed by that many
// payload bytes.  write_frame gathers the prefix and the payload's parts
// into one sendmsg, without copying them: a separate 4-byte segment would
// interact with Nagle + delayed ACK on loopback and cap small-tile
// throughput at ~25 req/s per connection.  read_frame rejects a
// declared length of 0 or above kMaxFrameBytes before reading any payload,
// and reads in 64 KiB steps into a buffer that grows only as bytes arrive,
// so a declared length costs memory only once its bytes are on the wire;
// the buffer doubles, and its last growth step ends at exactly the
// declared length.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "server/protocol.hpp"

namespace dwt::server {

/// What read_frame found on the socket.
enum class FrameStatus {
  kOk,         ///< one whole frame is in the payload buffer
  kClosed,     ///< EOF, reset or shutdown() before the frame completed
  kBadLength,  ///< declared length 0 or above kMaxFrameBytes; nothing read
};

/// Sends one frame whose payload is `head` followed by `tail` (length
/// prefix and both parts in one sendmsg, resumed after a partial send;
/// MSG_NOSIGNAL so a vanished peer is an error return rather than SIGPIPE).
/// False when the peer is gone.
[[nodiscard]] bool write_frame(int fd, std::span<const std::uint8_t> head,
                               std::span<const std::uint8_t> tail = {});

/// Reads one frame into `payload` (replacing its contents).  Once a length
/// header has arrived, `*declared` holds it, also when it is rejected.
[[nodiscard]] FrameStatus read_frame(int fd,
                                     std::vector<std::uint8_t>* payload,
                                     std::uint32_t* declared);

/// Connects to `spec`: `unix:PATH` or a TCP port number on 127.0.0.1 (the
/// form `dwt97d --connect` takes).  TCP connections get TCP_NODELAY.
/// Throws std::runtime_error on a malformed spec or a failed connect.
[[nodiscard]] int connect_endpoint(const std::string& spec);

/// One request/response exchange on a connected socket: writes `req`, reads
/// and decodes the answer.  nullopt with `*error` set when the peer is gone,
/// answers with a bad frame length, or sends an undecodable response.
[[nodiscard]] std::optional<Response> exchange(int fd, const Request& req,
                                               std::string* error);

}  // namespace dwt::server
