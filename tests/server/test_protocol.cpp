#include "server/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "support/mutation.hpp"

namespace dwt::server {
namespace {

Request sample_request() {
  Request req;
  req.op = Op::kForward;
  req.format = PayloadFormat::kRaw8;
  req.design = hw::DesignId::kDesign4;
  req.opt_level = rtl::compiled::OptLevel::kSafe;
  req.octaves = 3;
  req.tile = 32;
  req.width = 5;
  req.height = 3;
  req.backend = "rtl-compiled";
  req.payload.assign(15, 0x42);
  return req;
}

TEST(ServerProtocol, RequestRoundTripsThroughEncodeDecode) {
  const Request req = sample_request();
  const std::vector<std::uint8_t> frame = encode_request(req);
  std::string error;
  const auto got = decode_request(frame.data(), frame.size(), &error);
  ASSERT_TRUE(got.has_value()) << error;
  EXPECT_EQ(got->op, req.op);
  EXPECT_EQ(got->format, req.format);
  EXPECT_EQ(got->design, req.design);
  EXPECT_EQ(got->opt_level, req.opt_level);
  EXPECT_EQ(got->octaves, req.octaves);
  EXPECT_EQ(got->tile, req.tile);
  EXPECT_EQ(got->width, req.width);
  EXPECT_EQ(got->height, req.height);
  EXPECT_EQ(got->backend, req.backend);
  EXPECT_EQ(got->payload, req.payload);
}

/// A 3840x2160 PGM tile request without a backend name: 13 header bytes,
/// then the PGM's 17 header bytes and 8,294,400 samples.
Request four_k_tile_request() {
  Request req;
  req.op = Op::kTileRoundTrip;
  req.format = PayloadFormat::kPgm;
  const std::string head = "P5\n3840 2160\n255\n";
  req.payload.assign(head.begin(), head.end());
  req.payload.resize(head.size() + std::size_t{3840} * 2160);
  for (std::size_t i = head.size(); i < req.payload.size(); ++i) {
    req.payload[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 9));
  }
  return req;
}

TEST(ServerProtocol, DecodedPayloadReusesTheFrameBuffer) {
  const Request req = four_k_tile_request();
  std::vector<std::uint8_t> frame = encode_request(req);
  ASSERT_EQ(frame.size(), 8294430u);
  const std::uint8_t* storage = frame.data();
  const std::size_t capacity = frame.capacity();
  std::string error;
  const std::optional<Request> got = decode_request(std::move(frame), &error);
  ASSERT_TRUE(got.has_value()) << error;
  EXPECT_EQ(got->payload.data(), storage);
  EXPECT_EQ(got->payload.capacity(), capacity);
  EXPECT_EQ(got->payload, req.payload);
  EXPECT_EQ(got->op, req.op);
  EXPECT_EQ(got->format, req.format);
  EXPECT_TRUE(got->backend.empty());
}

TEST(ServerProtocol, ResponseRoundTripsThroughEncodeDecode) {
  Response resp;
  resp.status = Status::kOk;
  resp.op = Op::kTileRoundTrip;
  resp.width = 640;
  resp.height = 480;
  resp.payload = {1, 2, 3, 4};
  const std::vector<std::uint8_t> frame = encode_response(resp);
  // Version, status, op echo, width and height (u16 LE), then the payload.
  EXPECT_EQ(frame, (std::vector<std::uint8_t>{1, 0, 1, 0x80, 0x02, 0xE0, 0x01,
                                              1, 2, 3, 4}));
  std::string error;
  const auto got = decode_response(frame.data(), frame.size(), &error);
  ASSERT_TRUE(got.has_value()) << error;
  EXPECT_EQ(got->status, Status::kOk);
  EXPECT_EQ(got->op, resp.op);
  EXPECT_EQ(got->width, resp.width);
  EXPECT_EQ(got->height, resp.height);
  EXPECT_EQ(got->payload, resp.payload);

  const Response err = error_response(Status::kQueueFull, "try later");
  const std::vector<std::uint8_t> eframe = encode_response(err);
  const auto egot = decode_response(eframe.data(), eframe.size(), &error);
  ASSERT_TRUE(egot.has_value()) << error;
  EXPECT_EQ(egot->status, Status::kQueueFull);
  EXPECT_EQ(response_message(*egot), "try later");
}

TEST(ServerProtocol, RejectsTruncatedAndCorruptRequestFrames) {
  const std::vector<std::uint8_t> frame = encode_request(sample_request());
  std::string error;

  // Truncations anywhere inside the fixed header fail cleanly; truncation
  // inside the backend name is caught by the declared length.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{5},
                                 std::size_t{12}, std::size_t{14}}) {
    EXPECT_FALSE(decode_request(frame.data(), keep, &error).has_value())
        << "kept " << keep << " bytes";
    EXPECT_FALSE(error.empty());
  }

  const auto corrupt = [&frame, &error](std::size_t at, std::uint8_t v) {
    std::vector<std::uint8_t> bad = frame;
    bad[at] = v;
    return decode_request(bad.data(), bad.size(), &error).has_value();
  };
  EXPECT_FALSE(corrupt(0, 99));    // wrong protocol version
  EXPECT_FALSE(corrupt(1, 0));     // op below range
  EXPECT_FALSE(corrupt(1, 200));   // op above range
  EXPECT_FALSE(corrupt(2, 7));     // unknown payload format
  EXPECT_FALSE(corrupt(3, 0));     // design 0
  EXPECT_FALSE(corrupt(3, 6));     // design 6
  EXPECT_FALSE(corrupt(4, 3));     // opt level 3
  EXPECT_FALSE(corrupt(5, 0));     // zero octaves
  EXPECT_FALSE(corrupt(5, 17));    // octaves above cap
}

TEST(ServerProtocol, RejectsRawPayloadSizeMismatch) {
  Request req = sample_request();
  req.payload.pop_back();  // 14 bytes for a 5x3 raw tile
  const std::vector<std::uint8_t> frame = encode_request(req);
  std::string error;
  EXPECT_FALSE(decode_request(frame.data(), frame.size(), &error).has_value());
  EXPECT_NE(error.find("width * height"), std::string::npos);

  req = sample_request();
  req.width = 0;
  req.payload.clear();
  const std::vector<std::uint8_t> zframe = encode_request(req);
  EXPECT_FALSE(
      decode_request(zframe.data(), zframe.size(), &error).has_value());
}

TEST(ServerProtocol, RejectsCorruptResponseFrames) {
  Response resp;
  resp.status = Status::kOk;
  resp.op = Op::kMetrics;
  const std::vector<std::uint8_t> frame = encode_response(resp);
  std::string error;
  EXPECT_FALSE(decode_response(frame.data(), 1, &error).has_value());
  EXPECT_FALSE(decode_response(frame.data(), 4, &error).has_value());
  std::vector<std::uint8_t> bad = frame;
  bad[0] = 99;  // version
  EXPECT_FALSE(decode_response(bad.data(), bad.size(), &error).has_value());
  bad = frame;
  bad[1] = 200;  // status
  EXPECT_FALSE(decode_response(bad.data(), bad.size(), &error).has_value());
}

/// Every request shape the encoder produces (each op and payload format,
/// with and without a backend name) plus an ok and an error response.
std::vector<std::vector<std::uint8_t>> protocol_seeds() {
  std::vector<std::vector<std::uint8_t>> seeds;
  const std::string pgm = "P5\n3 2\n255\n\x01\x02\x03\x04\x05\x06";
  for (const Op op : {Op::kTileRoundTrip, Op::kForward, Op::kCompress,
                      Op::kMetrics, Op::kShutdown}) {
    for (const PayloadFormat format : {PayloadFormat::kRaw8,
                                       PayloadFormat::kPgm}) {
      for (const char* backend : {"", "rtl-compiled"}) {
        Request req;
        req.op = op;
        req.format = format;
        req.octaves = 2;
        req.width = 3;
        req.height = 2;
        req.backend = backend;
        if (format == PayloadFormat::kRaw8) {
          req.payload = {1, 2, 3, 4, 5, 6};
        } else {
          req.payload.assign(pgm.begin(), pgm.end());
        }
        seeds.push_back(encode_request(req));
      }
    }
  }
  Response ok;
  ok.op = Op::kForward;
  ok.width = 3;
  ok.height = 2;
  ok.payload = {9, 8, 7, 6};
  seeds.push_back(encode_response(ok));
  seeds.push_back(encode_response(error_response(Status::kQueueFull, "busy")));
  return seeds;
}

/// A decoder either refuses `bytes` with a message, or returns a value whose
/// encoding decodes and re-encodes to the same bytes.
template <class T, class Decode, class Encode>
bool decodes_or_rejects_cleanly(const std::vector<std::uint8_t>& bytes,
                                Decode decode, Encode encode) {
  std::string error;
  const std::optional<T> value = decode(bytes.data(), bytes.size(), &error);
  if (!value) return !error.empty();
  const std::vector<std::uint8_t> once = encode(*value);
  const std::optional<T> again = decode(once.data(), once.size(), &error);
  return again.has_value() && encode(*again) == once;
}

/// decode_request over borrowed bytes, checked against the overload that
/// takes the frame over: a disagreement is a rejection without a message.
std::optional<Request> decode_request_both(const std::uint8_t* data,
                                           std::size_t size,
                                           std::string* error) {
  std::optional<Request> borrowed = decode_request(data, size, error);
  std::string taken_error;
  const std::optional<Request> taken = decode_request(
      std::vector<std::uint8_t>(data, data + size), &taken_error);
  const bool agree =
      borrowed.has_value() == taken.has_value() &&
      (borrowed ? encode_request(*borrowed) == encode_request(*taken)
                : *error == taken_error);
  if (!agree) {
    error->clear();
    return std::nullopt;
  }
  return borrowed;
}

TEST(ServerProtocol, MutatedFramesDecodeOrRejectCleanly) {
  const std::size_t unclean = test::count_unclean_mutations(
      protocol_seeds(), 20261017, 50000, /*header_bytes=*/13,
      [](const std::vector<std::uint8_t>& m) {
        return decodes_or_rejects_cleanly<Request>(m, decode_request_both,
                                                   encode_request) &&
               decodes_or_rejects_cleanly<Response>(m, decode_response,
                                                    encode_response);
      });
  EXPECT_EQ(unclean, 0u);
}

TEST(ServerProtocol, StatusStringsAreStable) {
  EXPECT_STREQ(to_string(Status::kOk), "ok");
  EXPECT_STREQ(to_string(Status::kBadFrame), "bad-frame");
  EXPECT_STREQ(to_string(Status::kBadRequest), "bad-request");
  EXPECT_STREQ(to_string(Status::kQueueFull), "queue-full");
  EXPECT_STREQ(to_string(Status::kShuttingDown), "shutting-down");
  EXPECT_STREQ(to_string(Status::kInternalError), "internal-error");
}

}  // namespace
}  // namespace dwt::server
