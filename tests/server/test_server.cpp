// DwtServer end-to-end: framed requests over real sockets against a live
// server.  The byte-identity tests recompute the `dwt97cli tile` pipeline
// in-process (tile output is byte-identical at every thread count, so the
// single-threaded reference is the CLI's answer) and require the server to
// return exactly those bytes at 1, 2 and 8 workers under a concurrent
// mixed-design load; the admission-control tests hold the admission gate
// with the start_paused hook to make queue-full and drain rejection
// deterministic, with one and with several requests waiting.
#include "server/server.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/worker_pool.hpp"
#include "core/artifact_cache.hpp"
#include "core/registry.hpp"
#include "dsp/dwt2d.hpp"
#include "dsp/image.hpp"
#include "dsp/image_gen.hpp"
#include "hw/tile_scheduler.hpp"
#include "server/protocol.hpp"
#include "server/transport.hpp"

namespace dwt::server {
namespace {

/// A client connection to `server`'s TCP port; -1 (and a test failure)
/// when the connect fails, so client threads never throw.
int dial(const DwtServer& server) {
  try {
    return connect_endpoint(std::to_string(server.port()));
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
    return -1;
  }
}

Response exchange(int fd, const Request& req) {
  std::string error;
  const std::optional<Response> resp =
      dwt::server::exchange(fd, req, &error);
  EXPECT_TRUE(resp.has_value()) << error;
  return resp.value_or(Response{});
}

/// Reads and decodes the next response frame.
Response receive(int fd) {
  std::vector<std::uint8_t> frame;
  std::uint32_t len = 0;
  EXPECT_EQ(read_frame(fd, &frame, &len), FrameStatus::kOk);
  std::string error;
  const std::optional<Response> resp =
      decode_response(frame.data(), frame.size(), &error);
  EXPECT_TRUE(resp.has_value()) << error;
  return resp.value_or(Response{});
}

std::vector<std::uint8_t> pgm_bytes(const dsp::Image& img) {
  std::ostringstream out;
  dsp::write_pgm(img, out, "test image");
  const std::string s = out.str();
  return {s.begin(), s.end()};
}

/// The exact `dwt97cli tile` pipeline, computed in-process.
std::vector<std::uint8_t> cli_tile_bytes(const dsp::Image& input,
                                         const std::string& backend,
                                         hw::DesignId design, int octaves) {
  dsp::Image img = input;
  hw::TileOptions opt;
  opt.method = dsp::Method::kLiftingFixed;
  opt.octaves = octaves;
  opt.threads = 1;
  opt.backend = backend.empty() ? nullptr : core::find_backend(backend);
  opt.design = design;
  if (!backend.empty()) {
    EXPECT_NE(opt.backend, nullptr) << backend;
  }
  dsp::level_shift_forward(img);
  dsp::round_coefficients(img);
  (void)hw::tile_forward(img, opt);
  hw::TileOptions inv = opt;
  if (inv.backend != nullptr && !inv.backend->caps().inverse_2d) {
    inv.backend = nullptr;
  }
  (void)hw::tile_inverse(img, inv);
  dsp::level_shift_inverse(img);
  return pgm_bytes(img);
}

Request tile_request(const dsp::Image& img, const std::string& backend,
                     hw::DesignId design, int octaves) {
  Request req;
  req.op = Op::kTileRoundTrip;
  req.format = PayloadFormat::kPgm;
  req.design = design;
  req.octaves = octaves;
  req.backend = backend;
  req.payload = pgm_bytes(img);
  return req;
}

TEST(DwtServer, MixedDesignResponsesByteIdenticalAtEveryWorkerCount) {
  const dsp::Image even = dsp::make_still_tone_image(96, 64, 3);
  const dsp::Image odd = dsp::make_still_tone_image(33, 17, 9);
  struct Case {
    const dsp::Image* img;
    std::string backend;
    hw::DesignId design;
    int octaves;
  };
  const std::vector<Case> cases = {
      {&even, "", hw::DesignId::kDesign2, 2},
      {&odd, "", hw::DesignId::kDesign2, 1},
      {&even, "software-fixed", hw::DesignId::kDesign1, 2},
      {&even, "rtl-compiled", hw::DesignId::kDesign2, 2},
      {&odd, "rtl-compiled", hw::DesignId::kDesign3, 2},
      {&even, "rtl-compiled", hw::DesignId::kDesign3, 3},
  };
  std::vector<std::vector<std::uint8_t>> expected;
  expected.reserve(cases.size());
  for (const Case& c : cases) {
    expected.push_back(cli_tile_bytes(*c.img, c.backend, c.design, c.octaves));
  }

  for (const unsigned workers : {1u, 2u, 8u}) {
    ServerOptions opt;
    opt.workers = workers;
    opt.queue_depth = 64;
    DwtServer server(opt);
    server.start();
    // Every case in flight at once, on its own connection.
    std::vector<std::thread> clients;
    std::vector<std::vector<std::uint8_t>> got(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
      clients.emplace_back([&, i] {
        const int fd = dial(server);
        const Response resp =
            exchange(fd, tile_request(*cases[i].img, cases[i].backend,
                                      cases[i].design, cases[i].octaves));
        EXPECT_EQ(resp.status, Status::kOk) << response_message(resp);
        got[i] = resp.payload;
        ::close(fd);
      });
    }
    for (std::thread& t : clients) t.join();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "case " << i << " at " << workers
                                     << " workers";
    }
    const MetricsSnapshot m = server.metrics();
    EXPECT_EQ(m.requests_ok, cases.size());
    EXPECT_EQ(m.requests_error, 0u);
    server.stop();
  }
}

TEST(DwtServer, MalformedFramesGetStructuredErrorsWithoutDroppingConnection) {
  ServerOptions opt;
  opt.workers = 1;
  DwtServer server(opt);
  server.start();
  const int fd = dial(server);

  // Unparseable request (bad protocol version): structured kBadFrame
  // answer, connection stays usable.
  const std::vector<std::uint8_t> bad = {99, 1, 1, 2, 2, 2, 0, 0, 0, 0, 0, 0,
                                         0};
  ASSERT_TRUE(write_frame(fd, bad));
  Response r = receive(fd);
  EXPECT_EQ(r.status, Status::kBadFrame);
  EXPECT_FALSE(response_message(r).empty());

  // Well-formed frame, invalid content (truncated PGM): kBadRequest via the
  // hardened read_pgm validation, connection still usable.
  Request truncated;
  truncated.op = Op::kTileRoundTrip;
  truncated.format = PayloadFormat::kPgm;
  const std::string header = "P5\n64 64\n255\n";
  truncated.payload.assign(header.begin(), header.end());
  r = exchange(fd, truncated);
  EXPECT_EQ(r.status, Status::kBadRequest);
  EXPECT_NE(response_message(r).find("truncated"), std::string::npos);

  // Unknown backend name: kBadRequest, connection still usable.
  const dsp::Image img = dsp::make_still_tone_image(16, 16, 1);
  Request unknown = tile_request(img, "no-such-engine",
                                 hw::DesignId::kDesign2, 1);
  r = exchange(fd, unknown);
  EXPECT_EQ(r.status, Status::kBadRequest);
  EXPECT_NE(response_message(r).find("unknown backend"), std::string::npos);

  // The same connection then serves a valid request.
  r = exchange(fd, tile_request(img, "", hw::DesignId::kDesign2, 1));
  EXPECT_EQ(r.status, Status::kOk);

  // A hostile length prefix (beyond kMaxFrameBytes) is answered before the
  // connection closes.
  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::uint8_t len[4];
  for (int i = 0; i < 4; ++i) {
    len[i] = static_cast<std::uint8_t>((huge >> (8 * i)) & 0xFF);
  }
  ASSERT_EQ(::send(fd, len, 4, MSG_NOSIGNAL), 4);
  EXPECT_EQ(receive(fd).status, Status::kBadFrame);
  ::close(fd);

  const MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.protocol_errors, 2u);
  EXPECT_EQ(m.requests_error, 2u);
  EXPECT_EQ(m.requests_ok, 1u);
  server.stop();
}

TEST(DwtServer, MalformedP5PayloadsGetBadRequestOnALiveConnection) {
  ServerOptions opt;
  opt.workers = 1;
  DwtServer server(opt);
  server.start();
  const int fd = dial(server);
  const dsp::Image img = dsp::make_still_tone_image(16, 16, 1);
  // A binary sample above maxval, and a pixel byte where the whitespace
  // after maxval belongs.
  const std::string docs[] = {std::string("P5\n2 2\n100\n\x00\x32\xc8\x00", 15),
                              std::string("P5\n2 2\n255Xabcd")};
  for (const std::string& doc : docs) {
    Request bad = tile_request(img, "", hw::DesignId::kDesign2, 1);
    bad.payload.assign(doc.begin(), doc.end());
    const Response r = exchange(fd, bad);
    EXPECT_EQ(r.status, Status::kBadRequest);
    EXPECT_NE(response_message(r).find("read_pgm: "), std::string::npos)
        << response_message(r);
    // The connection still serves a valid request.
    const Response ok =
        exchange(fd, tile_request(img, "", hw::DesignId::kDesign2, 1));
    EXPECT_EQ(ok.status, Status::kOk);
    EXPECT_EQ(ok.payload, cli_tile_bytes(img, "", hw::DesignId::kDesign2, 1));
  }
  ::close(fd);
  EXPECT_EQ(server.metrics().requests_error, 2u);
  server.stop();
}

/// Sends `req` on `n` new connections without reading the answers, and
/// waits until the server counts all n as waiting at its admission gate.
std::vector<int> send_waiting(const DwtServer& server, const Request& req,
                              std::size_t n) {
  std::vector<int> fds;
  for (std::size_t i = 0; i < n; ++i) {
    fds.push_back(dial(server));
    EXPECT_TRUE(write_frame(fds.back(), encode_request(req)));
  }
  while (server.queue_size() < n) {
    std::this_thread::yield();
  }
  return fds;
}

TEST(DwtServer, QueueFullRejectionIsDeterministic) {
  struct Case {
    unsigned workers;
    std::size_t queue_depth;
  };
  for (const Case c : {Case{1, 1}, Case{2, 4}}) {
    ServerOptions opt;
    opt.workers = c.workers;
    opt.queue_depth = c.queue_depth;
    opt.start_paused = true;  // hold the gate so the queue cannot drain
    DwtServer server(opt);
    server.start();
    const dsp::Image img = dsp::make_still_tone_image(16, 16, 2);
    const Request req = tile_request(img, "", hw::DesignId::kDesign2, 1);

    const std::vector<int> waiting = send_waiting(server, req, c.queue_depth);
    EXPECT_EQ(server.queue_size(), c.queue_depth);

    // The queue is now full and the gate held: the next request is rejected
    // with kQueueFull, deterministically.
    const int next = dial(server);
    const Response rejected = exchange(next, req);
    EXPECT_EQ(rejected.status, Status::kQueueFull);
    ::close(next);

    server.set_paused(false);
    for (const int fd : waiting) {
      EXPECT_EQ(receive(fd).status, Status::kOk);
      ::close(fd);
    }

    const MetricsSnapshot m = server.metrics();
    EXPECT_EQ(m.rejected_queue_full, 1u);
    EXPECT_EQ(m.requests_ok, c.queue_depth);
    EXPECT_EQ(server.queue_size(), 0u);
    server.stop();
  }
}

TEST(DwtServer, GracefulDrainFinishesQueuedWorkAndRejectsNew) {
  for (const std::size_t n_queued : {std::size_t{1}, std::size_t{8}}) {
    ServerOptions opt;
    opt.workers = 2;
    opt.queue_depth = 8;
    opt.start_paused = true;
    DwtServer server(opt);
    server.start();
    const dsp::Image img = dsp::make_still_tone_image(16, 16, 5);
    const Request req = tile_request(img, "", hw::DesignId::kDesign2, 1);

    const std::vector<int> queued = send_waiting(server, req, n_queued);
    EXPECT_EQ(server.queue_size(), n_queued);

    server.begin_drain();
    EXPECT_TRUE(server.shutdown_requested());

    // Post-drain arrivals are answered with kShuttingDown, not dropped.
    const int late = dial(server);
    const Response rejected = exchange(late, req);
    EXPECT_EQ(rejected.status, Status::kShuttingDown);
    ::close(late);

    // The queued requests still complete once the gate opens.
    server.set_paused(false);
    for (const int fd : queued) {
      EXPECT_EQ(receive(fd).status, Status::kOk);
      ::close(fd);
    }

    server.stop();
    const MetricsSnapshot m = server.metrics();
    EXPECT_EQ(m.rejected_shutting_down, 1u);
    EXPECT_EQ(m.requests_ok, n_queued);
    EXPECT_EQ(server.queue_size(), 0u);
  }
}

TEST(DwtServer, MetricsAndShutdownOpsServeOverUnixSocket) {
  ServerOptions opt;
  opt.workers = 1;
  opt.unix_socket_path = testing::TempDir() + "dwt97d_test.sock";
  DwtServer server(opt);
  server.start();
  const int fd = connect_endpoint("unix:" + opt.unix_socket_path);

  const dsp::Image img = dsp::make_still_tone_image(16, 16, 8);
  Response r = exchange(fd, tile_request(img, "", hw::DesignId::kDesign2, 1));
  EXPECT_EQ(r.status, Status::kOk);

  Request metrics;
  metrics.op = Op::kMetrics;
  r = exchange(fd, metrics);
  ASSERT_EQ(r.status, Status::kOk);
  const std::string json = response_message(r);
  EXPECT_NE(json.find("\"bench\": \"dwt97d_metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"requests_ok\", \"value\": 1"),
            std::string::npos);
  EXPECT_NE(json.find("latency_p50_us"), std::string::npos);
  EXPECT_NE(json.find("cache_hit_rate"), std::string::npos);

  Request shutdown;
  shutdown.op = Op::kShutdown;
  r = exchange(fd, shutdown);
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_TRUE(server.shutdown_requested());
  ::close(fd);
  server.stop();
  // The socket file is removed on stop.
  EXPECT_NE(::access(opt.unix_socket_path.c_str(), F_OK), 0);
}

/// The forward op's answer through the Image API: the level-shifted
/// image's packed tile subbands, each llround'ed to one i32 LE.
std::vector<std::uint8_t> image_forward_bytes(const dsp::Image& input,
                                              const std::string& backend,
                                              hw::DesignId design,
                                              int octaves) {
  dsp::Image img = input;
  hw::TileOptions opt;
  opt.octaves = octaves;
  opt.threads = 1;
  opt.backend = backend.empty() ? nullptr : core::find_backend(backend);
  opt.design = design;
  dsp::level_shift_forward(img);
  dsp::round_coefficients(img);
  (void)hw::tile_forward(img, opt);
  std::vector<std::uint8_t> out;
  for (const double v : img.data()) {
    const auto u = static_cast<std::uint32_t>(
        static_cast<std::int32_t>(std::llround(v)));
    for (int b = 0; b < 4; ++b) {
      out.push_back(static_cast<std::uint8_t>(u >> (8 * b)));
    }
  }
  return out;
}

/// The same image as a raw8 payload.
Request as_raw8(Request req, const dsp::Image& img) {
  req.format = PayloadFormat::kRaw8;
  req.width = static_cast<std::uint16_t>(img.width());
  req.height = static_cast<std::uint16_t>(img.height());
  req.payload.resize(img.data().size());
  for (std::size_t i = 0; i < req.payload.size(); ++i) {
    req.payload[i] = static_cast<std::uint8_t>(
        std::clamp(std::round(img.data()[i]), 0.0, 255.0));
  }
  return req;
}

TEST(DwtServer, ExecuteRequestMatchesOpContracts) {
  const dsp::Image img = dsp::make_still_tone_image(24, 18, 4);
  // Forward returns one i32 LE per pixel: exactly the Image API's packed
  // subbands, on the default path and on a gate-level core, from PGM and
  // raw8 payloads alike.
  for (const std::string backend : {"", "rtl-compiled"}) {
    for (int octaves = 1; octaves <= 3; ++octaves) {
      Request fwd = tile_request(img, backend, hw::DesignId::kDesign3, octaves);
      fwd.op = Op::kForward;
      const std::vector<std::uint8_t> want =
          image_forward_bytes(img, backend, hw::DesignId::kDesign3, octaves);
      for (const Request& req : {fwd, as_raw8(fwd, img)}) {
        const Response f = execute_request(req);
        ASSERT_EQ(f.status, Status::kOk) << response_message(f);
        EXPECT_EQ(f.width, 24u);
        EXPECT_EQ(f.height, 18u);
        EXPECT_EQ(f.payload, want)
            << "backend '" << backend << "' octaves " << octaves << " format "
            << static_cast<int>(req.format);
      }
    }
  }

  // Compress returns a codec bitstream that decodes to the input shape.
  Request comp = tile_request(img, "", hw::DesignId::kDesign2, 2);
  comp.op = Op::kCompress;
  const Response c = execute_request(comp);
  ASSERT_EQ(c.status, Status::kOk);
  EXPECT_FALSE(c.payload.empty());

  // Raw8 payloads round-trip like PGM ones.
  const Response r =
      execute_request(as_raw8(tile_request(img, "", hw::DesignId::kDesign2, 1), img));
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.payload, cli_tile_bytes(img, "", hw::DesignId::kDesign2, 1));

  // Control ops are not transform requests.
  Request metrics;
  metrics.op = Op::kMetrics;
  EXPECT_EQ(execute_request(metrics).status, Status::kBadRequest);

  // A gate-level core is built for at most 9 octaves; the protocol takes
  // up to 16, and the answer names the core's range.
  const Response deep = execute_request(
      tile_request(img, "rtl-compiled", hw::DesignId::kDesign3, 10));
  EXPECT_EQ(deep.status, Status::kBadRequest);
  EXPECT_NE(response_message(deep).find("1..9"), std::string::npos)
      << response_message(deep);
}

// A transform's tiles lift on its share of the host; the answer is the
// single-threaded CLI pipeline's, on the software engines and a netlist core
// alike.
TEST(DwtServer, ExecuteRequestOnSeveralTileThreadsMatchesTheCli) {
  const dsp::Image img = dsp::make_still_tone_image(130, 67, 6);  // 3x2 tiles
  for (const std::string backend : {"", "software-float", "rtl-compiled"}) {
    const Request req =
        tile_request(img, backend, hw::DesignId::kDesign3, 2);
    const std::vector<std::uint8_t> want =
        cli_tile_bytes(img, backend, hw::DesignId::kDesign3, 2);
    for (const Request& r : {req, as_raw8(req, img)}) {
      const Response resp = execute_request(r, 3);
      ASSERT_EQ(resp.status, Status::kOk) << response_message(resp);
      EXPECT_EQ(resp.payload, want) << "backend '" << backend << "' format "
                                    << static_cast<int>(r.format);
    }
  }
}

TEST(DwtServer, TileThreadShareSplitsTheHostAmongWorkers) {
  EXPECT_EQ(tile_thread_share(4, 2), 2u);
  EXPECT_EQ(tile_thread_share(4, 4), 1u);
  EXPECT_EQ(tile_thread_share(4, 8), 1u);
  EXPECT_EQ(tile_thread_share(1, 1), 1u);
  ServerOptions opt;
  opt.workers = 2;
  EXPECT_EQ(DwtServer(opt).tile_threads(),
            tile_thread_share(common::resolve_threads(0), 2));
}

// A gate-level backend transforms frames up to 256x256 per request; a wider
// one is answered before any transform runs (no core asks the artifact
// cache for its design), and the answer names the limit and the CLI that
// has none.
TEST(DwtServer, GateLevelRequestsAreBoundedTo256Square) {
  core::ArtifactCache& cache = core::ArtifactCache::instance();
  const auto design_requests = [&cache] {
    const core::CacheStats s = cache.stats();
    return s.design_builds + s.design_hits;
  };
  const std::uint64_t before = design_requests();
  for (const Op op : {Op::kTileRoundTrip, Op::kForward}) {
    Request wide = tile_request(dsp::make_still_tone_image(257, 256, 4),
                                "rtl-compiled", hw::DesignId::kDesign4, 1);
    wide.op = op;
    const Response r = execute_request(wide);
    EXPECT_EQ(r.status, Status::kBadRequest);
    const std::string msg = response_message(r);
    EXPECT_NE(msg.find("256x256"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dwt97cli tile"), std::string::npos) << msg;
  }
  Request tall = tile_request(dsp::make_still_tone_image(8, 257, 4),
                              "rtl-interpreted", hw::DesignId::kDesign4, 1);
  EXPECT_EQ(execute_request(tall).status, Status::kBadRequest);
  EXPECT_EQ(design_requests(), before);
  // The software path has no such limit.
  Request software = tile_request(dsp::make_still_tone_image(257, 256, 4), "",
                                  hw::DesignId::kDesign4, 1);
  EXPECT_EQ(execute_request(software).status, Status::kOk);
}

/// A /proc/self/status size field ("VmRSS", "VmSize") in bytes.
long long proc_status_bytes(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stoll(line.substr(field.size() + 1)) * 1024;
    }
  }
  ADD_FAILURE() << field << " missing from /proc/self/status";
  return 0;
}

TEST(DwtServer, DeclaredFrameLengthCostsMemoryOnlyAsBytesArrive) {
  ServerOptions opt;
  opt.workers = 1;
  DwtServer server(opt);
  server.start();
  const long long before = proc_status_bytes("VmRSS");
  // 16 clients each declare a maximal frame and then send nothing.
  std::uint8_t len[4];
  for (int i = 0; i < 4; ++i) {
    len[i] = static_cast<std::uint8_t>((kMaxFrameBytes >> (8 * i)) & 0xFF);
  }
  std::vector<int> fds;
  for (int i = 0; i < 16; ++i) {
    fds.push_back(dial(server));
    EXPECT_EQ(::send(fds.back(), len, 4, MSG_NOSIGNAL), 4);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const long long grown = proc_status_bytes("VmRSS") - before;
  for (const int fd : fds) ::close(fd);
  server.stop();
  EXPECT_LT(grown, 64LL << 20) << "VmRSS grew by " << (grown >> 20) << " MiB";
}

TEST(DwtServer, FinishedConnectionsReleaseTheirThreads) {
  ServerOptions opt;
  opt.workers = 1;
  DwtServer server(opt);
  server.start();
  // Each connection is answered before it closes, so the server has taken
  // every earlier one by the time the next connects.
  Request metrics;
  metrics.op = Op::kMetrics;
  const auto cycle = [&] {
    const int fd = dial(server);
    EXPECT_EQ(exchange(fd, metrics).status, Status::kOk);
    ::close(fd);
  };
  // Warm-up: malloc's per-thread arenas (64 MiB of address space each) and
  // the thread-stack cache reach their working size before the baseline.
  for (int i = 0; i < 50; ++i) cycle();
  const long long before = proc_status_bytes("VmSize");
  for (int i = 0; i < 500; ++i) cycle();
  const long long grown = proc_status_bytes("VmSize") - before;
  server.stop();
  EXPECT_LT(grown, 256LL << 20) << "VmSize grew by " << (grown >> 20) << " MiB";
}

/// The highest descriptor this process has open.
int highest_open_fd() {
  int highest = 0;
  for (const auto& fd : std::filesystem::directory_iterator("/proc/self/fd")) {
    highest = std::max(highest, std::stoi(fd.path().filename().string()));
  }
  return highest;
}

TEST(DwtServer, AcceptResumesAfterDescriptorExhaustion) {
  ServerOptions opt;
  opt.workers = 1;
  DwtServer server(opt);
  server.start();
  Request metrics;
  metrics.op = Op::kMetrics;
  // A metrics exchange that gives up after `seconds`, so a server that no
  // longer accepts fails the test instead of hanging it.
  const auto answers = [&](int fd, time_t seconds) {
    const timeval timeout{seconds, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    std::string error;
    return dwt::server::exchange(fd, metrics, &error).has_value();
  };

  // Client and server share this process's descriptor table: leave room
  // for a few dozen descriptors above the highest one open now.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct RestoreLimit {
    rlimit limit;
    ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &limit); }
  } restore{saved};
  int spare = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(spare, 0);
  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(highest_open_fd()) + 33;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);

  // Idle clients, each answered, until one is not: the server's accept
  // failed for want of a descriptor.  When the server took the last one
  // instead, the spare makes room for exactly one more client.
  std::vector<int> idle;
  bool refused = false;
  while (!refused && idle.size() < 256) {
    int fd = -1;
    try {
      fd = connect_endpoint(std::to_string(server.port()));
    } catch (const std::exception&) {
      if (spare < 0) break;
      ::close(spare);
      spare = -1;
      continue;
    }
    idle.push_back(fd);
    refused = !answers(fd, 1);
  }
  for (const int fd : idle) ::close(fd);
  if (spare >= 0) ::close(spare);
  ASSERT_TRUE(refused) << "descriptors never ran out";

  // Freed descriptors: a fresh client is answered.
  const int fresh = dial(server);
  EXPECT_TRUE(answers(fresh, 3)) << "accept did not resume";
  ::close(fresh);
  server.stop();
}

}  // namespace
}  // namespace dwt::server
