// dwt97d -- the DWT-as-a-service daemon and its client.
//
//   dwt97d serve    [--socket PATH | --port N] [--workers N] [--queue N]
//   dwt97d tile     <in.pgm> <out.pgm> --connect SPEC [--octaves N]
//                   [--tile N] [--backend NAME] [--design D]
//                   [--opt-level 0|1|2]
//   dwt97d forward  <in.pgm> <out.bin> --connect SPEC [same knobs]
//   dwt97d compress <in.pgm> <out.dwt> --connect SPEC [--octaves N]
//   dwt97d metrics  --connect SPEC
//   dwt97d shutdown --connect SPEC
//
// SPEC is `unix:PATH` or a TCP port number on 127.0.0.1.  `serve` runs the
// server (src/server; --workers bounds the transforms running at once)
// until SIGINT/SIGTERM or a shutdown request, then drains gracefully.  The
// client subcommands frame one request, print or write the response, and
// exit nonzero on any error status -- `dwt97d tile` output is
// byte-identical to `dwt97cli tile` under the same knobs.
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cli_args.hpp"
#include "core/registry.hpp"
#include "hw/designs.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/transport.hpp"

namespace {

namespace cli = dwt::cli;

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int) { g_signal = 1; }

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  dwt97d serve    [--socket PATH | --port N] [--workers N] "
      "[--queue N]\n"
      "  dwt97d tile     <in.pgm> <out.pgm> --connect SPEC [--octaves N]\n"
      "                  [--tile N] [--backend NAME] [--design D] "
      "[--opt-level 0|1|2]\n"
      "  dwt97d forward  <in.pgm> <out.bin> --connect SPEC [same knobs]\n"
      "  dwt97d compress <in.pgm> <out.dwt> --connect SPEC [--octaves N]\n"
      "  dwt97d metrics  --connect SPEC\n"
      "  dwt97d shutdown --connect SPEC\n"
      "SPEC: unix:PATH or a TCP port on 127.0.0.1\n"
      "backends: %s\n",
      dwt::core::backend_names().c_str());
  return 2;
}

/// One request/response exchange over a fresh connection.
dwt::server::Response roundtrip(const std::string& spec,
                                const dwt::server::Request& req) {
  const int fd = dwt::server::connect_endpoint(spec);
  std::string error;
  const std::optional<dwt::server::Response> resp =
      dwt::server::exchange(fd, req, &error);
  ::close(fd);
  if (!resp) throw std::runtime_error(error);
  return *resp;
}

/// Prints an error response; true when `resp` is ok.
bool check_ok(const dwt::server::Response& resp) {
  if (resp.status == dwt::server::Status::kOk) return true;
  std::fprintf(stderr, "error (%s): %s\n", dwt::server::to_string(resp.status),
               dwt::server::response_message(resp).c_str());
  return false;
}

int cmd_serve(int argc, char** argv) {
  dwt::server::ServerOptions opt;
  if (!cli::parse_flags(argc, argv, 2,
                        {cli::text_flag("--socket", &opt.unix_socket_path),
                         cli::uint_flag("--port", 0, 65535, &opt.tcp_port),
                         cli::uint_flag("--workers", 0, 1024, &opt.workers),
                         cli::uint_flag("--queue", 1, 1 << 20,
                                        &opt.queue_depth)})) {
    return usage();
  }
  dwt::server::DwtServer server(opt);
  server.start();
  if (!opt.unix_socket_path.empty()) {
    std::printf("dwt97d: listening on %s (%u workers, queue %zu)\n",
                opt.unix_socket_path.c_str(), server.workers(),
                server.queue_capacity());
  } else {
    std::printf("dwt97d: listening on 127.0.0.1:%u (%u workers, queue %zu)\n",
                server.port(), server.workers(), server.queue_capacity());
  }
  std::fflush(stdout);
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_signal == 0 && !server.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("dwt97d: draining...\n");
  std::fflush(stdout);
  server.stop();
  std::printf("dwt97d: stopped\n");
  return 0;
}

int cmd_transform(int argc, char** argv, dwt::server::Op op) {
  if (argc < 4) return usage();
  dwt::server::Request req;
  req.op = op;
  req.format = dwt::server::PayloadFormat::kPgm;
  std::string spec;
  if (!cli::parse_flags(
          argc, argv, 4,
          {cli::text_flag("--connect", &spec),
           cli::uint_flag("--octaves", 1, 16, &req.octaves),
           cli::uint_flag("--tile", 1, 65535, &req.tile),
           cli::text_flag("--backend", &req.backend),
           cli::value_flag("--design",
                           [&](const char* v) {
                             const std::optional<dwt::hw::DesignId> design =
                                 dwt::hw::parse_design(v);
                             if (design) req.design = *design;
                             return design.has_value();
                           }),
           cli::uint_flag("--opt-level", 0, 2, &req.opt_level)})) {
    return usage();
  }
  if (spec.empty()) {
    std::fprintf(stderr, "missing --connect SPEC\n");
    return usage();
  }
  req.payload = cli::read_file<std::vector<std::uint8_t>>(argv[2]);
  const dwt::server::Response resp = roundtrip(spec, req);
  if (!check_ok(resp)) return 1;
  cli::write_file(argv[3], resp.payload);
  std::printf("%s: %ux%u, %zu bytes\n", argv[3], resp.width, resp.height,
              resp.payload.size());
  return 0;
}

/// `metrics` prints the server's metrics document; `shutdown` asks it to
/// drain.
int cmd_control(int argc, char** argv, dwt::server::Op op) {
  std::string spec;
  if (!cli::parse_flags(argc, argv, 2, {cli::text_flag("--connect", &spec)}) ||
      spec.empty()) {
    return usage();
  }
  dwt::server::Request req;
  req.op = op;
  const dwt::server::Response resp = roundtrip(spec, req);
  if (!check_ok(resp)) return 1;
  if (op == dwt::server::Op::kShutdown) {
    std::printf("shutdown requested\n");
  } else {
    std::fwrite(resp.payload.data(), 1, resp.payload.size(), stdout);
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "serve") == 0) return cmd_serve(argc, argv);
    if (std::strcmp(argv[1], "tile") == 0) {
      return cmd_transform(argc, argv, dwt::server::Op::kTileRoundTrip);
    }
    if (std::strcmp(argv[1], "forward") == 0) {
      return cmd_transform(argc, argv, dwt::server::Op::kForward);
    }
    if (std::strcmp(argv[1], "compress") == 0) {
      return cmd_transform(argc, argv, dwt::server::Op::kCompress);
    }
    if (std::strcmp(argv[1], "metrics") == 0) {
      return cmd_control(argc, argv, dwt::server::Op::kMetrics);
    }
    if (std::strcmp(argv[1], "shutdown") == 0) {
      return cmd_control(argc, argv, dwt::server::Op::kShutdown);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
