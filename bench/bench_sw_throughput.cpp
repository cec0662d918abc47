// Library-performance microbenchmarks (google-benchmark): software
// transform throughput, the served tile path's stages, and simulator speed.  These measure this library on
// the host CPU -- they are not paper experiments, but they document what a
// user pays for each API.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "dsp/dwt2d.hpp"
#include "dsp/image.hpp"
#include "dsp/image_gen.hpp"
#include "hw/designs.hpp"
#include "hw/stream_runner.hpp"
#include "hw/tile_scheduler.hpp"
#include "rtl/simulator.hpp"

namespace {

/// A 1-D transform of n samples: a one-row window of the 2-D transform.
void one_row(benchmark::State& state, dwt::dsp::Method m) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const dwt::dsp::Image base = dwt::dsp::make_still_tone_image(n, 1, 3);
  for (auto _ : state) {
    dwt::dsp::Image row = base;
    dwt::dsp::dwt2d_forward(m, row, 1);
    benchmark::DoNotOptimize(row.data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_Lifting1dFloat(benchmark::State& state) {
  one_row(state, dwt::dsp::Method::kLiftingFloat);
}
BENCHMARK(BM_Lifting1dFloat)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Lifting1dFixed(benchmark::State& state) {
  one_row(state, dwt::dsp::Method::kLiftingFixed);
}
BENCHMARK(BM_Lifting1dFixed)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Fir1dFloat(benchmark::State& state) {
  one_row(state, dwt::dsp::Method::kFirFloat);
}
BENCHMARK(BM_Fir1dFloat)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Dwt2dMultiOctave(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const dwt::dsp::Image base = dwt::dsp::make_still_tone_image(n, n, 5);
  for (auto _ : state) {
    dwt::dsp::Image img = base;
    dwt::dsp::dwt2d_forward(dwt::dsp::Method::kLiftingFloat, img, 3);
    benchmark::DoNotOptimize(img.data().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_Dwt2dMultiOctave)->Arg(64)->Arg(128)->Arg(256);

// The stages of `dwt97d`'s default `tile` request, timed apart on an int32
// plane: parse the PGM payload into level-shifted samples, the tile
// forward and inverse (64-pixel tiles, two octaves, one thread), and the
// clamping P5 render; then the one-pass round trip the request runs.  Args
// are the frame's width and height.
std::vector<std::uint8_t> served_pgm(const benchmark::State& state) {
  return dwt::dsp::render_pgm(dwt::dsp::make_still_tone_image(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(1)), 11));
}

dwt::dsp::Plane<std::int32_t> served_plane(const benchmark::State& state) {
  return dwt::dsp::parse_pgm(served_pgm(state), "bench", 128);
}

dwt::hw::TileOptions served_options() {
  dwt::hw::TileOptions opt;
  opt.octaves = 2;
  opt.threads = 1;
  return opt;
}

void set_pixels(benchmark::State& state) {
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}

void BM_ServedParse(benchmark::State& state) {
  const std::vector<std::uint8_t> pgm = served_pgm(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwt::dsp::parse_pgm(pgm, "bench", 128));
  }
  set_pixels(state);
}

/// Times `transform` on a fresh copy of `base` per iteration.
template <class Transform>
void time_on_copies(benchmark::State& state,
                    const dwt::dsp::Plane<std::int32_t>& base,
                    Transform transform) {
  for (auto _ : state) {
    state.PauseTiming();
    dwt::dsp::Plane<std::int32_t> plane = base;
    state.ResumeTiming();
    transform(plane);
    benchmark::DoNotOptimize(plane.data().data());
    benchmark::ClobberMemory();
  }
  set_pixels(state);
}

void BM_ServedForward(benchmark::State& state) {
  time_on_copies(state, served_plane(state), [](auto& plane) {
    (void)dwt::hw::tile_forward(plane, served_options());
  });
}

void BM_ServedInverse(benchmark::State& state) {
  dwt::dsp::Plane<std::int32_t> coefficients = served_plane(state);
  (void)dwt::hw::tile_forward(coefficients, served_options());
  time_on_copies(state, coefficients, [](auto& plane) {
    (void)dwt::hw::tile_inverse(plane, served_options());
  });
}

void BM_ServedRender(benchmark::State& state) {
  const dwt::dsp::Plane<std::int32_t> plane = served_plane(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwt::dsp::render_pgm(plane, 128));
  }
  set_pixels(state);
}

/// What `dwt97d` runs for the request: the four stages above in one pass
/// over the tiles, from the payload's bytes to the answer's.
void BM_ServedRoundTrip(benchmark::State& state) {
  const std::vector<std::uint8_t> pgm = served_pgm(state);
  for (auto _ : state) {
    std::vector<std::uint8_t> decoded;
    benchmark::DoNotOptimize(dwt::hw::tile_round_trip(
        dwt::dsp::pgm_pixels(pgm, "bench", &decoded), served_options()));
  }
  set_pixels(state);
}

BENCHMARK(BM_ServedParse)->Args({3840, 2160})->Args({64, 64});
BENCHMARK(BM_ServedForward)->Args({3840, 2160})->Args({64, 64});
BENCHMARK(BM_ServedInverse)->Args({3840, 2160})->Args({64, 64});
BENCHMARK(BM_ServedRender)->Args({3840, 2160})->Args({64, 64});
BENCHMARK(BM_ServedRoundTrip)->Args({3840, 2160})->Args({64, 64});

void BM_GateLevelSimulation(benchmark::State& state) {
  const auto dp = dwt::hw::build_design(
      static_cast<dwt::hw::DesignId>(state.range(0)));
  dwt::rtl::Simulator sim(dp.netlist);
  const dwt::dsp::Image img = dwt::dsp::make_still_tone_image(128, 1, 9);
  std::vector<std::int64_t> x;
  for (const double v : img.data()) {
    x.push_back(static_cast<std::int64_t>(std::llround(v)) - 128);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dwt::hw::run_stream(dp, sim, x));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_GateLevelSimulation)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

// Custom main so this binary honours the repo-wide `--json <path>` bench
// convention (bench/schema.md): the flag is rewritten into google-benchmark's
// own JSON output options, so the document shape is google-benchmark's.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && std::strcmp(argv[i], "--json") == 0) {
      args.push_back("--benchmark_out=" + std::string(argv[i + 1]));
      args.push_back("--benchmark_out_format=json");
      ++i;
      continue;
    }
    args.emplace_back(argv[i]);
  }
  std::vector<char*> cargs;
  cargs.reserve(args.size());
  for (std::string& a : args) cargs.push_back(a.data());
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
