// dwt97d wire protocol: length-prefixed frames carrying tile-transform
// requests (raw or PGM tiles in) and responses (round-trip PGM, forward
// subbands, or codec output back), plus the metrics / shutdown control ops.
//
// Transport framing (server/transport.hpp) is a little-endian u32 payload
// length followed by that many payload bytes; the length is capped
// (kMaxFrameBytes) so a hostile header cannot make a reader allocate
// unbounded memory.  Every decode
// failure maps to a structured error response frame (status + message) --
// the server answers malformed requests instead of dropping the connection,
// and the hardened dsp::read_pgm validation path (truncated payloads,
// dimension/maxval caps) is reused verbatim for PGM payloads.
//
// All multi-byte integers are little-endian.  Request payload layout:
//
//   [0]    u8  version        (kProtocolVersion)
//   [1]    u8  op             (Op)
//   [2]    u8  format         (PayloadFormat; transform ops only)
//   [3]    u8  design         (1..5)
//   [4]    u8  opt_level      (0..2)
//   [5]    u8  octaves        (1..16)
//   [6:8]  u16 tile           (nominal tile size; 0 = default 64)
//   [8:10] u16 width          (kRaw8 only; kPgm carries its own header)
//   [10:12]u16 height
//   [12]   u8  backend_len    (0 = default in-thread software transform)
//   [13:]  backend name, then pixel payload
//
// Response payload layout:
//
//   [0]    u8  version
//   [1]    u8  status         (Status)
//   ok:    u8 op echo, u16 width, u16 height, result bytes
//   error: UTF-8 message for the remainder of the frame
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hw/designs.hpp"
#include "rtl/compiled/tape.hpp"

namespace dwt::server {

inline constexpr std::uint8_t kProtocolVersion = 1;

/// Hard cap on one frame's payload: a 65535 x 65535 8-bit image plus header
/// slack never reaches it, anything larger is corrupt or hostile.
inline constexpr std::uint32_t kMaxFrameBytes = 72u << 20;

enum class Op : std::uint8_t {
  kTileRoundTrip = 1,  ///< forward+inverse tile pipeline; PGM bytes back
  kForward = 2,        ///< forward only; packed subband plane as i32 LE
  kCompress = 3,       ///< codec encode; .dwt bitstream back
  kMetrics = 4,        ///< metrics snapshot as byte-stable JSON
  kShutdown = 5,       ///< begin graceful drain; empty ok response
};

enum class Status : std::uint8_t {
  kOk = 0,
  kBadFrame = 1,      ///< unparseable frame (bad version/op/field layout)
  kBadRequest = 2,    ///< well-formed frame, invalid content (bad PGM, ...)
  kQueueFull = 3,     ///< admission control rejected the request
  kShuttingDown = 4,  ///< server is draining; no new work accepted
  kInternalError = 5,
};

[[nodiscard]] const char* to_string(Status s);

enum class PayloadFormat : std::uint8_t {
  kRaw8 = 0,  ///< width * height raw 8-bit pixels, row-major
  kPgm = 1,   ///< complete PGM (P5/P2) document, parsed by dsp::read_pgm
};

struct Request {
  Op op = Op::kTileRoundTrip;
  PayloadFormat format = PayloadFormat::kPgm;
  hw::DesignId design = hw::DesignId::kDesign2;
  rtl::compiled::OptLevel opt_level = rtl::compiled::OptLevel::kFull;
  int octaves = 2;
  std::uint16_t tile = 0;  ///< 0 = default (64)
  std::uint16_t width = 0;
  std::uint16_t height = 0;
  std::string backend;  ///< registry name; empty = in-thread software path
  std::vector<std::uint8_t> payload;
};

struct Response {
  Status status = Status::kOk;
  Op op = Op::kTileRoundTrip;
  std::uint16_t width = 0;
  std::uint16_t height = 0;
  std::vector<std::uint8_t> payload;  ///< result bytes, or error message
};

/// Renders a request/response as one frame payload (no length prefix).
[[nodiscard]] std::vector<std::uint8_t> encode_request(const Request& req);
[[nodiscard]] std::vector<std::uint8_t> encode_response(const Response& resp);

/// The bytes an encoded response starts with: version and status, then for
/// an ok response the op echo, width and height.  encode_response(resp) is
/// these bytes followed by resp.payload; the server sends the two as one
/// frame without joining them.
struct ResponseHeader {
  std::array<std::uint8_t, 7> bytes{};
  std::size_t size = 0;
  [[nodiscard]] std::span<const std::uint8_t> view() const {
    return {bytes.data(), size};
  }
};
[[nodiscard]] ResponseHeader response_header(const Response& resp);

/// Parses a frame payload.  Returns std::nullopt and sets `error` when the
/// bytes are not a valid frame of the expected kind; the caller turns that
/// into a kBadFrame response (requests) or a client-side error (responses).
[[nodiscard]] std::optional<Request> decode_request(
    const std::uint8_t* data, std::size_t size, std::string* error);
/// decode_request over a frame the caller gives up: the request's payload
/// takes over the frame's buffer instead of copying out of it (a 4K tile
/// is 8 MB).  `frame` is left in a valid but unspecified state.
[[nodiscard]] std::optional<Request> decode_request(
    std::vector<std::uint8_t>&& frame, std::string* error);
[[nodiscard]] std::optional<Response> decode_response(
    const std::uint8_t* data, std::size_t size, std::string* error);

/// Convenience for the error path: a response frame carrying `status` and a
/// human-readable message.
[[nodiscard]] Response error_response(Status status, const std::string& msg);

/// Error-message text of an error response (the payload bytes as a string).
[[nodiscard]] std::string response_message(const Response& resp);

}  // namespace dwt::server
