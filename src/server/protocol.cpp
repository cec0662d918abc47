#include "server/protocol.hpp"

#include <cstddef>
#include <cstring>
#include <utility>

namespace dwt::server {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

bool fail(std::string* error, const char* why) {
  if (error != nullptr) *error = why;
  return false;
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kBadFrame: return "bad-frame";
    case Status::kBadRequest: return "bad-request";
    case Status::kQueueFull: return "queue-full";
    case Status::kShuttingDown: return "shutting-down";
    case Status::kInternalError: return "internal-error";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_request(const Request& req) {
  std::vector<std::uint8_t> out;
  out.reserve(13 + req.backend.size() + req.payload.size());
  out.push_back(kProtocolVersion);
  out.push_back(static_cast<std::uint8_t>(req.op));
  out.push_back(static_cast<std::uint8_t>(req.format));
  out.push_back(static_cast<std::uint8_t>(hw::design_index(req.design)));
  out.push_back(static_cast<std::uint8_t>(req.opt_level));
  out.push_back(static_cast<std::uint8_t>(req.octaves));
  put_u16(out, req.tile);
  put_u16(out, req.width);
  put_u16(out, req.height);
  out.push_back(static_cast<std::uint8_t>(req.backend.size()));
  out.insert(out.end(), req.backend.begin(), req.backend.end());
  out.insert(out.end(), req.payload.begin(), req.payload.end());
  return out;
}

ResponseHeader response_header(const Response& resp) {
  ResponseHeader h;
  const auto put = [&h](unsigned v) {
    h.bytes[h.size++] = static_cast<std::uint8_t>(v);
  };
  put(kProtocolVersion);
  put(static_cast<unsigned>(resp.status));
  if (resp.status == Status::kOk) {
    put(static_cast<unsigned>(resp.op));
    for (const std::uint16_t v : {resp.width, resp.height}) {
      put(v & 0xFF);
      put(v >> 8);
    }
  }
  return h;
}

std::vector<std::uint8_t> encode_response(const Response& resp) {
  const ResponseHeader head = response_header(resp);
  std::vector<std::uint8_t> out;
  out.reserve(head.size + resp.payload.size());
  out.insert(out.end(), head.bytes.begin(), head.bytes.begin() + head.size);
  out.insert(out.end(), resp.payload.begin(), resp.payload.end());
  return out;
}

namespace {

/// decode_request's one body.  `frame`, when given, is the vector holding
/// `data`; the payload then takes over its storage instead of a copy.
std::optional<Request> decode_request_from(const std::uint8_t* data,
                                           std::size_t size,
                                           std::vector<std::uint8_t>* frame,
                                           std::string* error) {
  constexpr std::size_t kHeader = 13;
  if (size < kHeader) {
    fail(error, "request frame shorter than the fixed header");
    return std::nullopt;
  }
  if (data[0] != kProtocolVersion) {
    fail(error, "unsupported protocol version");
    return std::nullopt;
  }
  Request req;
  const std::uint8_t op = data[1];
  if (op < static_cast<std::uint8_t>(Op::kTileRoundTrip) ||
      op > static_cast<std::uint8_t>(Op::kShutdown)) {
    fail(error, "unknown request op");
    return std::nullopt;
  }
  req.op = static_cast<Op>(op);
  const std::uint8_t format = data[2];
  if (format > static_cast<std::uint8_t>(PayloadFormat::kPgm)) {
    fail(error, "unknown payload format");
    return std::nullopt;
  }
  req.format = static_cast<PayloadFormat>(format);
  const std::uint8_t design = data[3];
  if (design < 1 || design > hw::kDesignCount) {
    fail(error, "design index outside 1..5");
    return std::nullopt;
  }
  req.design = static_cast<hw::DesignId>(design - 1);
  const std::uint8_t opt = data[4];
  if (opt > 2) {
    fail(error, "opt level outside 0..2");
    return std::nullopt;
  }
  req.opt_level = static_cast<rtl::compiled::OptLevel>(opt);
  const std::uint8_t octaves = data[5];
  if (octaves < 1 || octaves > 16) {
    fail(error, "octaves outside 1..16");
    return std::nullopt;
  }
  req.octaves = octaves;
  req.tile = get_u16(data + 6);
  req.width = get_u16(data + 8);
  req.height = get_u16(data + 10);
  const std::size_t backend_len = data[12];
  if (size < kHeader + backend_len) {
    fail(error, "request frame truncated inside the backend name");
    return std::nullopt;
  }
  req.backend.assign(reinterpret_cast<const char*>(data + kHeader),
                     backend_len);
  if (frame != nullptr) {
    // Drop the header bytes in front of the payload, in place.
    req.payload = std::move(*frame);
    req.payload.erase(req.payload.begin(),
                      req.payload.begin() +
                          static_cast<std::ptrdiff_t>(kHeader + backend_len));
  } else {
    req.payload.assign(data + kHeader + backend_len, data + size);
  }
  if (req.format == PayloadFormat::kRaw8 && req.op != Op::kMetrics &&
      req.op != Op::kShutdown) {
    if (req.width == 0 || req.height == 0) {
      fail(error, "raw payload with zero dimensions");
      return std::nullopt;
    }
    const std::size_t expect =
        static_cast<std::size_t>(req.width) * req.height;
    if (req.payload.size() != expect) {
      fail(error, "raw payload size does not match width * height");
      return std::nullopt;
    }
  }
  return req;
}

}  // namespace

std::optional<Request> decode_request(const std::uint8_t* data,
                                      std::size_t size, std::string* error) {
  return decode_request_from(data, size, nullptr, error);
}

std::optional<Request> decode_request(std::vector<std::uint8_t>&& frame,
                                      std::string* error) {
  return decode_request_from(frame.data(), frame.size(), &frame, error);
}

std::optional<Response> decode_response(const std::uint8_t* data,
                                        std::size_t size, std::string* error) {
  if (size < 2) {
    fail(error, "response frame shorter than the fixed header");
    return std::nullopt;
  }
  if (data[0] != kProtocolVersion) {
    fail(error, "unsupported protocol version");
    return std::nullopt;
  }
  Response resp;
  const std::uint8_t status = data[1];
  if (status > static_cast<std::uint8_t>(Status::kInternalError)) {
    fail(error, "unknown response status");
    return std::nullopt;
  }
  resp.status = static_cast<Status>(status);
  if (resp.status == Status::kOk) {
    if (size < 7) {
      fail(error, "ok response truncated inside the fixed header");
      return std::nullopt;
    }
    const std::uint8_t op = data[2];
    if (op < static_cast<std::uint8_t>(Op::kTileRoundTrip) ||
        op > static_cast<std::uint8_t>(Op::kShutdown)) {
      fail(error, "unknown response op");
      return std::nullopt;
    }
    resp.op = static_cast<Op>(op);
    resp.width = get_u16(data + 3);
    resp.height = get_u16(data + 5);
    resp.payload.assign(data + 7, data + size);
  } else {
    resp.payload.assign(data + 2, data + size);
  }
  return resp;
}

Response error_response(Status status, const std::string& msg) {
  Response resp;
  resp.status = status;
  resp.payload.assign(msg.begin(), msg.end());
  return resp;
}

std::string response_message(const Response& resp) {
  return std::string(resp.payload.begin(), resp.payload.end());
}

}  // namespace dwt::server
