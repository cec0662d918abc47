// perfbench_probe -- the benchmark's compiled helper.
//
//   perfbench_probe batch FILE       runs FILE's lines, each one of
//       gen OUT W H SEED             seeded 8-bit P5 scene
//       forward IN OUT OCTAVES       golden forward plane: software-fixed
//                                    hw::tile_forward, packed as i32 LE
//   perfbench_probe spin THREADS     parallel-capacity probe (JSON)
//   perfbench_probe calib            host-speed calibration spin (JSON)
//   perfbench_probe load ...         socket load generator (loadgen.cpp)
//   perfbench_probe trace ...        traced in-process layer run (layers.cpp)
#include "probe.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/registry.hpp"
#include "dsp/dwt2d.hpp"
#include "hw/tile_scheduler.hpp"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  out.close();
  if (!out) throw std::runtime_error("write failed for " + path);
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix::uniform() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

void pgm_size(const std::vector<std::uint8_t>& pgm, std::size_t* w,
              std::size_t* h) {
  const std::string head(pgm.begin(),
                         pgm.begin() + std::min<std::size_t>(pgm.size(), 32));
  std::istringstream in(head);
  std::string magic;
  in >> magic >> *w >> *h;
  if (magic != "P5" || !in) throw std::runtime_error("not a generated P5 image");
}

std::vector<std::uint8_t> pack_i32(const dwt::dsp::Image& plane) {
  std::vector<std::uint8_t> out(plane.data().size() * 4);
  for (std::size_t i = 0; i < plane.data().size(); ++i) {
    const auto u = static_cast<std::uint32_t>(
        static_cast<std::int32_t>(std::llround(plane.data()[i])));
    for (int b = 0; b < 4; ++b) out[4 * i + b] = static_cast<std::uint8_t>(u >> (8 * b));
  }
  return out;
}

std::string arg_value(int argc, char** argv, const char* flag,
                      const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

std::vector<Case> load_cases(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<Case> cases;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    Case c;
    fields >> c.name >> c.weight >> c.op >> c.backend >> c.design >>
        c.octaves >> c.input_path >> c.expected_path;
    if (!fields) throw std::runtime_error("bad case line: " + line);
    if (c.backend == "-") c.backend.clear();
    c.pgm = read_file(c.input_path);
    c.expected = read_file(c.expected_path);
    std::size_t w = 0, h = 0;
    pgm_size(c.pgm, &w, &h);
    c.pixels = static_cast<std::uint64_t>(w) * h;
    cases.push_back(std::move(c));
  }
  if (cases.empty()) throw std::runtime_error("no cases in " + path);
  return cases;
}

namespace {

/// A photograph-like scene: separable illumination, a few soft discs and
/// mild noise, so the codec sees realistic statistics.
std::vector<std::uint8_t> make_scene(std::size_t w, std::size_t h,
                                     std::uint64_t seed) {
  SplitMix rng(seed);
  const double fx = 2.0 + 6.0 * rng.uniform(), fy = 2.0 + 6.0 * rng.uniform();
  const double px = 6.283 * rng.uniform(), py = 6.283 * rng.uniform();
  std::vector<double> row(w), col(h);
  for (std::size_t x = 0; x < w; ++x) {
    row[x] = 50.0 * std::sin(px + fx * 6.283 * static_cast<double>(x) /
                                      static_cast<double>(w));
  }
  for (std::size_t y = 0; y < h; ++y) {
    col[y] = 40.0 * std::cos(py + fy * 6.283 * static_cast<double>(y) /
                                      static_cast<double>(h));
  }
  struct Disc {
    double cx, cy, r, level;
  };
  std::vector<Disc> discs(4);
  for (Disc& d : discs) {
    d.cx = rng.uniform() * static_cast<double>(w);
    d.cy = rng.uniform() * static_cast<double>(h);
    d.r = (0.05 + 0.2 * rng.uniform()) *
          static_cast<double>(std::min(w, h)) + 1.0;
    d.level = 60.0 * rng.uniform() - 30.0;
  }
  std::vector<std::uint8_t> px_out(w * h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      double v = 128.0 + row[x] + col[y];
      for (const Disc& d : discs) {
        const double dx = static_cast<double>(x) - d.cx;
        const double dy = static_cast<double>(y) - d.cy;
        if (dx * dx + dy * dy < d.r * d.r) v += d.level;
      }
      v += static_cast<double>(rng.next() % 13) - 6.0;
      px_out[y * w + x] =
          static_cast<std::uint8_t>(std::clamp(std::lround(v), 0l, 255l));
    }
  }
  return px_out;
}

int cmd_gen(const std::vector<std::string>& a) {
  if (a.size() != 4) throw std::invalid_argument("gen OUT W H SEED");
  const std::size_t w = std::stoul(a[1]), h = std::stoul(a[2]);
  const std::string head =
      "P5\n" + std::to_string(w) + " " + std::to_string(h) + "\n255\n";
  std::vector<std::uint8_t> doc(head.begin(), head.end());
  const std::vector<std::uint8_t> px = make_scene(w, h, std::stoull(a[3]));
  doc.insert(doc.end(), px.begin(), px.end());
  write_file(a[0], doc);
  return 0;
}

int cmd_forward(const std::vector<std::string>& a) {
  if (a.size() != 3) throw std::invalid_argument("forward IN OUT OCTAVES");
  dwt::dsp::Image img = dwt::dsp::read_pgm(a[0]);
  dwt::hw::TileOptions opt;
  opt.octaves = std::stoi(a[2]);
  opt.threads = 1;
  opt.backend = dwt::core::find_backend("software-fixed");
  if (opt.backend == nullptr) throw std::runtime_error("no software-fixed");
  dwt::dsp::level_shift_forward(img);
  dwt::dsp::round_coefficients(img);
  (void)dwt::hw::tile_forward(img, opt);
  write_file(a[1], pack_i32(img));
  return 0;
}

int run_line(const std::vector<std::string>& words) {
  const std::vector<std::string> rest(words.begin() + 1, words.end());
  if (words[0] == "gen") return cmd_gen(rest);
  if (words[0] == "forward") return cmd_forward(rest);
  throw std::invalid_argument("unknown batch command: " + words[0]);
}

int cmd_batch(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::vector<std::string> words{std::istream_iterator<std::string>(fields),
                                   std::istream_iterator<std::string>()};
    if (!words.empty()) run_line(words);
  }
  return 0;
}

/// A fixed integer loop, independent of the code under test.
void spin(std::uint64_t iters) {
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < iters; ++i) x = x * 6364136223846793005ull + i;
  volatile std::uint64_t sink = x;
  (void)sink;
}

/// Median time in ms of five runs of `body`.
template <typename F>
double median_ms(F body) {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    body();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[2];
}

/// Host speed right now, on one thread: an integer spin, a streaming pass
/// over 16 MB and a dependent walk through 4 MB.  The end-to-end timings
/// are scaled by it (see run.py).
int cmd_calib() {
  constexpr std::size_t kStream = 2u << 20, kChase = 1u << 19;  // u64 words
  std::vector<std::uint64_t> buf(kStream);
  std::vector<std::uint32_t> next(kChase);
  SplitMix rng(1);
  for (std::uint32_t i = 0; i < kChase; ++i) next[i] = i;
  for (std::uint32_t i = kChase - 1; i > 0; --i) {  // one cycle (Sattolo)
    std::swap(next[i], next[rng.next() % i]);
  }
  const double alu = median_ms([] { spin(10'000'000); });
  const double stream = median_ms([&] {
    for (int pass = 0; pass < 4; ++pass) {
      for (std::size_t i = 0; i < kStream; ++i) buf[i] = buf[i] * 3 + i;
    }
  });
  const double chase = median_ms([&] {
    std::uint32_t at = 0;
    for (std::size_t i = 0; i < kChase; ++i) at = next[at];
    volatile std::uint32_t sink = at;
    (void)sink;
  });
  volatile std::uint64_t sink = buf[kStream / 2];
  (void)sink;
  std::printf("{\"ms\": %.4f, \"alu_ms\": %.4f, \"stream_ms\": %.4f, "
              "\"chase_ms\": %.4f}\n",
              alu + stream + chase, alu, stream, chase);
  return 0;
}

/// Spins `threads` workers over a fixed integer loop; the ratio of the
/// serial time to the parallel time, times the thread count, is how many
/// cores the host actually delivers right now.
int cmd_spin(unsigned threads) {
  const auto spin = [] { perfbench::spin(40'000'000); };
  const auto timed = [&](unsigned n) {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < n; ++i) pool.emplace_back(spin);
    for (std::thread& t : pool) t.join();
    return seconds_since(t0);
  };
  std::vector<double> capacity;
  double t1 = 0.0, tn = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    t1 = timed(1);
    tn = timed(threads);
    capacity.push_back(static_cast<double>(threads) * t1 / tn);
  }
  std::sort(capacity.begin(), capacity.end());
  std::printf("{\"threads\": %u, \"serial_ms\": %.3f, \"parallel_ms\": %.3f, "
              "\"capacity\": %.3f}\n",
              threads, t1 * 1e3, tn * 1e3, capacity[1]);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    if (argc >= 2) {
      const std::string cmd = argv[1];
      if (cmd == "batch" && argc == 3) return perfbench::cmd_batch(argv[2]);
      if (cmd == "spin" && argc == 3) {
        return perfbench::cmd_spin(
            static_cast<unsigned>(std::max(1, std::atoi(argv[2]))));
      }
      if (cmd == "calib" && argc == 2) return perfbench::cmd_calib();
      if (cmd == "load") return perfbench::cmd_load(argc, argv);
      if (cmd == "trace") return perfbench::cmd_trace(argc, argv);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: perfbench_probe batch FILE | spin N | calib | load ... | "
               "trace ...\n");
  return 2;
}
