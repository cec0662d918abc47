// dwt97d serving throughput: an in-process DwtServer (a thread per
// connection, at most `workers` transforms at once) under a concurrent
// socket load generator.  Phases cover the serving envelope -- thumbnail
// tiles, 4K frames, odd-dimension tiles, and a concurrent multi-design mix
// across backends -- and every single response is byte-compared against the
// `dwt97cli tile` pipeline computed locally, so the bench doubles as the
// end-to-end determinism check (byte-identical at any worker count).
//
// The bench asserts (exit code) the ISSUE acceptance gates: thumbnail
// throughput of at least 1000 req/s, an artifact-cache hit rate above 90%
// after warm-up, zero admission rejections, and zero byte mismatches.
// `--smoke` shrinks the request counts for CI; `--json <path>` emits the
// bench/schema.md record set (request counts, cache discipline and the
// mismatch/rejection counters are deterministic; throughput and latency
// records are perf and tolerance-gated).
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/artifact_cache.hpp"
#include "core/registry.hpp"
#include "dsp/dwt2d.hpp"
#include "dsp/image.hpp"
#include "dsp/image_gen.hpp"
#include "hw/tile_scheduler.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/transport.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace dwt;

std::vector<std::uint8_t> pgm_bytes(const dsp::Image& img) {
  std::ostringstream out;
  dsp::write_pgm(img, out, "bench image");
  const std::string s = out.str();
  return {s.begin(), s.end()};
}

/// The exact `dwt97cli tile` pipeline -- the reference every server
/// response is byte-compared against.
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

/// One request shape plus its precomputed golden answer.
struct Case {
  std::vector<std::uint8_t> frame;     // encoded request
  std::vector<std::uint8_t> expected;  // byte-exact response payload
};

Case make_case(const dsp::Image& img, const std::string& backend,
               hw::DesignId design, int octaves) {
  server::Request req;
  req.op = server::Op::kTileRoundTrip;
  req.format = server::PayloadFormat::kPgm;
  req.design = design;
  req.octaves = octaves;
  req.backend = backend;
  req.payload = pgm_bytes(img);
  return {server::encode_request(req),
          cli_tile_bytes(img, backend, design, octaves)};
}

struct PhaseResult {
  std::size_t requests = 0;
  std::size_t mismatches = 0;
  std::size_t errors = 0;
  double seconds = 0.0;
  [[nodiscard]] double rps() const {
    return seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
  }
};

/// Drives `total` requests round-robin over `cases` from `connections`
/// concurrent client connections (each with one request in flight, so
/// concurrency never exceeds the connection count and the default queue
/// cannot overflow).
PhaseResult run_phase(std::uint16_t port, const std::vector<Case>& cases,
                      unsigned connections, std::size_t total) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> errors{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(connections);
  for (unsigned cidx = 0; cidx < connections; ++cidx) {
    clients.emplace_back([&] {
      int fd = -1;
      try {
        fd = server::connect_endpoint(std::to_string(port));
      } catch (const std::exception&) {
        errors.fetch_add(1);
        return;
      }
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= total) break;
        const Case& c = cases[i % cases.size()];
        std::vector<std::uint8_t> frame;
        std::uint32_t len = 0;
        if (!server::write_frame(fd, c.frame) ||
            server::read_frame(fd, &frame, &len) != server::FrameStatus::kOk) {
          errors.fetch_add(1);
          break;
        }
        std::string error;
        const auto resp =
            server::decode_response(frame.data(), frame.size(), &error);
        if (!resp || resp->status != server::Status::kOk) {
          errors.fetch_add(1);
        } else if (resp->payload != c.expected) {
          mismatches.fetch_add(1);
        }
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  PhaseResult r;
  r.requests = total;
  r.mismatches = mismatches.load();
  r.errors = errors.load();
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter json("bench_server_throughput", argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const unsigned kConnections = 8;
  const unsigned kWorkers = 4;

  std::printf("dwt97d serving throughput, %u workers, %u connections%s.\n\n",
              kWorkers, kConnections, smoke ? " (smoke)" : "");

  // Request shapes.  Expected bytes are computed locally first, which also
  // pre-builds the gate-level artifacts the warm-up phase then hits.
  const dsp::Image thumb = dsp::make_still_tone_image(64, 64, 11);
  const dsp::Image frame4k = dsp::make_still_tone_image(3840, 2160, 12);
  const dsp::Image odd_a = dsp::make_still_tone_image(33, 17, 13);
  const dsp::Image odd_b = dsp::make_still_tone_image(129, 97, 14);
  const dsp::Image odd_c = dsp::make_still_tone_image(511, 255, 15);

  const std::vector<Case> thumb_cases = {
      make_case(thumb, "", hw::DesignId::kDesign2, 2)};
  const std::vector<Case> frame_cases = {
      make_case(frame4k, "", hw::DesignId::kDesign2, 2)};
  const std::vector<Case> odd_cases = {
      make_case(odd_a, "", hw::DesignId::kDesign2, 1),
      make_case(odd_b, "", hw::DesignId::kDesign2, 2),
      make_case(odd_c, "", hw::DesignId::kDesign2, 3)};
  const std::vector<Case> mixed_cases = {
      make_case(thumb, "", hw::DesignId::kDesign2, 2),
      make_case(thumb, "software-fixed", hw::DesignId::kDesign1, 2),
      make_case(thumb, "rtl-compiled", hw::DesignId::kDesign2, 2),
      make_case(thumb, "rtl-compiled", hw::DesignId::kDesign3, 2)};

  server::ServerOptions opt;
  opt.workers = kWorkers;
  opt.queue_depth = 64;
  server::DwtServer server(opt);
  server.start();

  // Warm-up: one request per mixed-design shape builds/hits every artifact
  // the load phases need, so the steady-state cache hit rate is measured
  // past the cold start.
  const PhaseResult warm =
      run_phase(server.port(), mixed_cases, 4, mixed_cases.size());

  struct Phase {
    const char* name;
    const std::vector<Case>* cases;
    std::size_t total;
  };
  const std::vector<Phase> phases = {
      {"thumbnail", &thumb_cases, smoke ? std::size_t{512} : 4096},
      {"frame4k", &frame_cases, smoke ? std::size_t{2} : 16},
      {"odd", &odd_cases, smoke ? std::size_t{48} : 384},
      {"mixed", &mixed_cases, smoke ? std::size_t{48} : 384},
  };

  std::printf("%10s %10s %12s %12s %8s\n", "phase", "requests", "req/s",
              "mismatch", "errors");
  double thumbnail_rps = 0.0;
  std::size_t total_mismatches = warm.mismatches;
  std::size_t total_errors = warm.errors;
  for (const Phase& p : phases) {
    const PhaseResult r =
        run_phase(server.port(), *p.cases, kConnections, p.total);
    std::printf("%10s %10zu %12.0f %12zu %8zu\n", p.name, r.requests, r.rps(),
                r.mismatches, r.errors);
    json.add(p.name, "requests", static_cast<double>(r.requests), "count");
    json.add(p.name, "throughput", r.rps(), "req/s");
    if (std::strcmp(p.name, "thumbnail") == 0) thumbnail_rps = r.rps();
    total_mismatches += r.mismatches;
    total_errors += r.errors;
  }

  const server::MetricsSnapshot m = server.metrics();
  const core::CacheStats cache = core::ArtifactCache::instance().stats();
  server.stop();

  const std::uint64_t hits = cache.design_hits + cache.tape_hits +
                             cache.mapped_hits + cache.cone_hits +
                             cache.native_hits;
  const std::uint64_t builds = cache.design_builds + cache.tape_builds +
                               cache.mapped_builds + cache.cone_builds +
                               cache.native_builds;
  const double hit_rate =
      hits + builds > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + builds)
          : 0.0;
  const std::uint64_t rejected =
      m.rejected_queue_full + m.rejected_shutting_down;

  std::printf("\nserver: ok %llu, rejected %llu, p50 %.0f us, p99 %.0f us, "
              "cache hit rate %.1f%% (%llu hits / %llu builds)\n",
              static_cast<unsigned long long>(m.requests_ok),
              static_cast<unsigned long long>(rejected), m.latency_p50_us,
              m.latency_p99_us, 100.0 * hit_rate,
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(builds));

  json.add("server", "requests_ok", static_cast<double>(m.requests_ok),
           "count");
  json.add("server", "rejected_total", static_cast<double>(rejected), "count");
  json.add("server", "byte_mismatches", static_cast<double>(total_mismatches),
           "count");
  json.add("server", "transport_errors", static_cast<double>(total_errors),
           "count");
  json.add("server", "latency_p50_us", m.latency_p50_us, "us");
  json.add("server", "latency_p99_us", m.latency_p99_us, "us");
  json.add("server", "cache_hit_rate", hit_rate, "ratio");
  json.add("server", "cache_design_builds",
           static_cast<double>(cache.design_builds), "count");
  json.add("server", "cache_tape_builds",
           static_cast<double>(cache.tape_builds), "count");
  json.add("server", "cache_native_builds",
           static_cast<double>(cache.native_builds), "count");
  if (!json.flush()) return 1;

  // Acceptance gates (exit code; CI runs the smoke configuration on the
  // Release build).
  bool ok = true;
  if (total_mismatches != 0 || total_errors != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu byte mismatches, %zu transport errors -- server "
                 "responses must be byte-identical to dwt97cli tile\n",
                 total_mismatches, total_errors);
    ok = false;
  }
  if (rejected != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu rejected requests (load never exceeds the "
                 "connection count, so admission control must not trip)\n",
                 static_cast<unsigned long long>(rejected));
    ok = false;
  }
  if (hit_rate <= 0.90) {
    std::fprintf(stderr, "FAIL: cache hit rate %.3f <= 0.90 after warm-up\n",
                 hit_rate);
    ok = false;
  }
#ifdef NDEBUG
  if (thumbnail_rps < 1000.0) {
    std::fprintf(stderr, "FAIL: thumbnail throughput %.0f req/s < 1000\n",
                 thumbnail_rps);
    ok = false;
  }
#else
  (void)thumbnail_rps;
#endif
  return ok ? 0 : 1;
}
