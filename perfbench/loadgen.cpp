// Socket load generator for the served workload.
//
//   perfbench_probe load --port P --cases FILE --conns C --seconds S
//
// Closed loop: every connection sends its next request as soon as the
// previous answer arrives, walking the cases round robin across all
// connections; latency runs from send to answer.  Before timing, each
// connection sends its share of the cases once (warm-up, checked but not
// counted).
//
// Throughput: Little's law with medians -- per connection, answers over
// the sum of each answer's shape-median latency -- so a stall of a shared
// host does not move it.  The plain count over the run is printed beside
// it (`count_rps`).
//
// Every answer is compared byte for byte with the case's golden payload.
// Prints one JSON object with the counts and the raw latency samples.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "probe.hpp"
#include "server/protocol.hpp"

namespace perfbench {
namespace {

using dwt::server::Op;
using dwt::server::Status;

int connect_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to 127.0.0.1:" +
                             std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, const std::vector<std::uint8_t>& b) {
  std::size_t off = 0;
  while (off < b.size()) {
    const ssize_t put = ::send(fd, b.data() + off, b.size() - off, MSG_NOSIGNAL);
    if (put <= 0) return false;
    off += static_cast<std::size_t>(put);
  }
  return true;
}

bool recv_all(int fd, std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t got = ::recv(fd, p, n, 0);
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

Op op_of(const std::string& name) {
  if (name == "tile") return Op::kTileRoundTrip;
  if (name == "forward") return Op::kForward;
  if (name == "compress") return Op::kCompress;
  throw std::invalid_argument("unknown op " + name);
}

/// Length-prefixed request frame of a case.
std::vector<std::uint8_t> request_frame(const Case& c) {
  dwt::server::Request req;
  req.op = op_of(c.op);
  req.format = dwt::server::PayloadFormat::kPgm;
  req.design = static_cast<dwt::hw::DesignId>(c.design - 1);
  req.octaves = c.octaves;
  req.backend = c.backend;
  req.payload = c.pgm;
  const std::vector<std::uint8_t> body = dwt::server::encode_request(req);
  std::vector<std::uint8_t> frame;
  frame.reserve(4 + body.size());
  const auto n = static_cast<std::uint32_t>(body.size());
  for (int i = 0; i < 4; ++i) frame.push_back(static_cast<std::uint8_t>(n >> (8 * i)));
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

enum class Outcome { kOk, kMismatch, kRejected, kFailed };

/// One exchange; kFailed also covers a broken connection (`alive` false).
Outcome exchange(int fd, const std::vector<std::uint8_t>& frame, const Case& c,
                 bool* alive) {
  *alive = false;
  if (!send_all(fd, frame)) return Outcome::kFailed;
  std::uint8_t len[4];
  if (!recv_all(fd, len, 4)) return Outcome::kFailed;
  const std::uint32_t n = static_cast<std::uint32_t>(len[0]) |
                          (static_cast<std::uint32_t>(len[1]) << 8) |
                          (static_cast<std::uint32_t>(len[2]) << 16) |
                          (static_cast<std::uint32_t>(len[3]) << 24);
  if (n == 0 || n > dwt::server::kMaxFrameBytes) return Outcome::kFailed;
  std::vector<std::uint8_t> buf(n);
  if (!recv_all(fd, buf.data(), n)) return Outcome::kFailed;
  *alive = true;
  std::string error;
  const std::optional<dwt::server::Response> resp =
      dwt::server::decode_response(buf.data(), buf.size(), &error);
  if (!resp) return Outcome::kFailed;
  if (resp->status == Status::kQueueFull ||
      resp->status == Status::kShuttingDown) {
    return Outcome::kRejected;
  }
  if (resp->status != Status::kOk) {
    std::fprintf(stderr, "load: %s on %s: %s\n", to_string(resp->status),
                 c.name.c_str(), dwt::server::response_message(*resp).c_str());
    return Outcome::kFailed;
  }
  if (resp->op != op_of(c.op) || resp->payload != c.expected) {
    return Outcome::kMismatch;
  }
  return Outcome::kOk;
}

struct Sample {
  double latency_ms = 0.0;
  std::size_t case_index = 0;
  Outcome outcome = Outcome::kOk;
};

struct ConnResult {
  std::vector<Sample> samples;
  std::size_t warmup_errors = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int cmd_load(int argc, char** argv) {
  const int port = std::stoi(arg_value(argc, argv, "--port", "0"));
  const std::vector<Case> cases = load_cases(arg_value(argc, argv, "--cases", ""));
  const unsigned conns =
      static_cast<unsigned>(std::stoul(arg_value(argc, argv, "--conns", "1")));
  const double seconds = std::stod(arg_value(argc, argv, "--seconds", "1"));

  std::vector<std::vector<std::uint8_t>> frames;
  for (const Case& c : cases) frames.push_back(request_frame(c));

  std::vector<int> fds(conns, -1);
  std::vector<ConnResult> results(conns);
  {
    std::vector<std::thread> pool;
    for (unsigned c = 0; c < conns; ++c) {
      pool.emplace_back([&, c] {
        fds[c] = connect_tcp(port);
        for (std::size_t k = c; k < cases.size(); k += conns) {
          bool alive = false;
          if (exchange(fds[c], frames[k], cases[k], &alive) != Outcome::kOk) {
            ++results[c].warmup_errors;
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  std::atomic<std::size_t> next{0};
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> pool;
    for (unsigned c = 0; c < conns; ++c) {
      pool.emplace_back([&, c] {
        for (;;) {
          const Clock::time_point start = Clock::now();
          if (start >= end) break;
          Sample s;
          s.case_index = next.fetch_add(1) % cases.size();
          bool alive = false;
          s.outcome = exchange(fds[c], frames[s.case_index], cases[s.case_index], &alive);
          s.latency_ms =
              std::chrono::duration<double, std::milli>(Clock::now() - start).count();
          results[c].samples.push_back(s);
          if (!alive) break;
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }
  for (const int fd : fds) {
    if (fd >= 0) ::close(fd);
  }

  // Tally, and the answered latencies per request shape.
  std::size_t attempted = 0, ok = 0, mismatched = 0, rejected = 0, failed = 0,
              warmup_errors = 0;
  std::vector<double> lat_all;
  std::vector<std::vector<double>> lat_case(cases.size());
  for (const ConnResult& r : results) {
    warmup_errors += r.warmup_errors;
    for (const Sample& s : r.samples) {
      ++attempted;
      switch (s.outcome) {
        case Outcome::kMismatch: ++mismatched; continue;
        case Outcome::kRejected: ++rejected; continue;
        case Outcome::kFailed: ++failed; continue;
        case Outcome::kOk: break;
      }
      ++ok;
      lat_all.push_back(s.latency_ms);
      lat_case[s.case_index].push_back(s.latency_ms);
    }
  }
  // Little's law per connection, with each answer charged its shape's
  // median latency.
  std::vector<double> case_median(cases.size());
  for (std::size_t k = 0; k < cases.size(); ++k) case_median[k] = median(lat_case[k]);
  double rps = 0.0, pix_s = 0.0;
  for (const ConnResult& r : results) {
    double n = 0.0, px = 0.0, busy_s = 0.0;
    for (const Sample& s : r.samples) {
      if (s.outcome != Outcome::kOk) continue;
      n += 1.0;
      px += static_cast<double>(cases[s.case_index].pixels);
      busy_s += case_median[s.case_index] / 1e3;
    }
    if (busy_s > 0.0) {
      rps += n / busy_s;
      pix_s += px / busy_s;
    }
  }

  std::printf("{\"attempted\": %zu, \"ok\": %zu, \"mismatched\": %zu, "
              "\"rejected\": %zu, \"failed\": %zu, \"warmup_errors\": %zu, "
              "\"throughput_rps\": %.6f, \"count_rps\": %.6f, "
              "\"throughput_mpix_s\": %.6f, \"per_case\": {",
              attempted, ok, mismatched, rejected, failed, warmup_errors, rps,
              static_cast<double>(ok) / seconds, pix_s / 1e6);
  for (std::size_t k = 0; k < cases.size(); ++k) {
    std::printf("%s\"%s\": {\"n\": %zu, \"p50_ms\": %.4f}", k ? ", " : "",
                cases[k].name.c_str(), lat_case[k].size(), median(lat_case[k]));
  }
  std::printf("}, \"latency_ms\": [");
  for (std::size_t i = 0; i < lat_all.size(); ++i) {
    std::printf("%s%.4f", i ? ", " : "", lat_all[i]);
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace perfbench
