#include "hw/tile_scheduler.hpp"

#include <algorithm>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/worker_pool.hpp"
#include "core/backend.hpp"
#include "dsp/dwt2d.hpp"
#include "hw/dwt2d_system.hpp"

namespace dwt::hw {
namespace {

/// The options' own checks; TileGrid rejects zero image or tile sizes.
void validate(const TileOptions& options) {
  if (options.octaves < 1) {
    throw std::invalid_argument("tile_scheduler: octaves < 1");
  }
  if (options.backend != nullptr && options.backend->caps().gate_level &&
      options.method != dsp::Method::kLiftingFixed) {
    throw std::invalid_argument(
        "tile_scheduler: hardware backend implements kLiftingFixed only");
  }
}

core::BackendRequest backend_request(const TileOptions& options) {
  core::BackendRequest req;
  req.design = options.design;
  req.adder = options.adder;
  req.max_octaves = options.octaves;
  req.opt_level = options.opt_level;
  req.exec_tier = options.exec_tier;
  return req;
}

/// Shards the tiles across the common worker pool.  Each worker touches
/// only its claimed tiles' pixel rectangles, which are disjoint, so no
/// output synchronisation is needed and the result is
/// scheduling-independent.  `make_state` runs once per worker (e.g. to open
/// its private backend session); `process` transforms one tile with that
/// state.
template <typename MakeState, typename Process>
TileStats run_pool(const TileGrid& grid, unsigned threads,
                   MakeState make_state, Process process) {
  TileStats stats;
  stats.tiles = grid.size();
  // Each worker sums the cycle accounting of the tiles it ran; the fields
  // are integers, so the totals do not depend on which worker ran which.
  std::mutex mutex;
  std::deque<Dwt2dRunStats> sums;
  stats.threads_used = common::run_pool(grid.size(), threads, [&]() {
    Dwt2dRunStats* sum = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      sum = &sums.emplace_back();
    }
    return [&, sum, state = make_state()](std::size_t t) mutable {
      const Dwt2dRunStats s = process(state, grid[t]);
      sum->total_cycles += s.total_cycles;
      sum->line_passes += s.line_passes;
    };
  });
  for (const Dwt2dRunStats& s : sums) {
    stats.total_cycles += s.total_cycles;
    stats.line_passes += s.line_passes;
  }
  return stats;
}

struct NoState {};

}  // namespace

TileGrid::TileGrid(std::size_t w, std::size_t h, std::size_t tile_w,
                   std::size_t tile_h)
    : w_(w),
      h_(h),
      tile_w_(tile_w),
      tile_h_(tile_h),
      cols_(tile_w == 0 ? 0 : (w + tile_w - 1) / tile_w),
      rows_(tile_h == 0 ? 0 : (h + tile_h - 1) / tile_h) {
  if (size() == 0) {
    throw std::invalid_argument("TileGrid: zero image or tile dimensions");
  }
}

namespace {

/// Every tile of `plane` through the selected engine, in one direction.  A
/// netlist engine (int32 planes only) transforms each tile through one
/// figure-4 system per worker; every other engine lifts it in-thread where
/// it lies.
template <class T>
TileStats run_tiles(dsp::PlaneView<T> plane, const TileOptions& options,
                    bool inverse) {
  validate(options);
  if (inverse && options.backend != nullptr &&
      !options.backend->caps().inverse_2d) {
    throw std::invalid_argument(
        "tile_inverse: no hardware inverse system; use the software backend "
        "(the hardware forward is bit-identical to kLiftingFixed)");
  }
  const TileGrid tiles(plane.width, plane.height, options.tile_w,
                       options.tile_h);
  const auto window = [&plane](const TileRect& t) {
    return plane.window(t.x0, t.y0, t.w, t.h);
  };
  // The dsp method that runs in-thread: the default path's `method`, or a
  // software backend's own; nullopt for a netlist backend.
  const std::optional<dsp::Method> method =
      options.backend != nullptr ? options.backend->software_method()
                                 : options.method;
  if constexpr (std::is_same_v<T, std::int32_t>) {
    if (!method) {
      const core::BackendRequest req = backend_request(options);
      return run_pool(
          tiles, options.threads,
          [&]() { return options.backend->make_2d_session(req); },
          [&](Dwt2dSystem& system, const TileRect& t) {
            return system.transform(window(t), options.octaves);
          });
    }
  }
  return run_pool(
      tiles, options.threads, []() { return NoState{}; },
      [&](NoState&, const TileRect& t) {
        if (inverse) {
          (void)dsp::dwt2d_inverse(method.value(), window(t), options.octaves);
        } else {
          (void)dsp::dwt2d_forward(method.value(), window(t), options.octaves);
        }
        return Dwt2dRunStats{};
      });
}

dsp::PlaneView<std::int32_t> integer_view(dsp::Plane<std::int32_t>& plane,
                                          const TileOptions& options) {
  if (!integer_valued(options)) {
    throw std::invalid_argument(
        "tile_scheduler: an int32 plane needs an integer-valued engine");
  }
  return plane.view();
}

/// The round trip's pool: every tile of `pixels` through a worker's tile
/// scratch of T, from its pixels to its rectangle of `out`.
template <class T>
TileStats round_trip_tiles(dsp::PlaneView<const std::uint8_t> pixels,
                           dsp::PlaneView<std::uint8_t> out,
                           const TileOptions& options) {
  validate(options);
  const TileGrid tiles(pixels.width, pixels.height, options.tile_w,
                       options.tile_h);
  // The forward's dsp method (nullopt: a netlist session) and the
  // inverse's, the default path's method for a netlist engine.
  const std::optional<dsp::Method> forward =
      options.backend != nullptr ? options.backend->software_method()
                                 : options.method;
  const dsp::Method inverse = forward.value_or(options.method);
  const core::BackendRequest req = backend_request(options);
  struct Worker {
    std::vector<T> scratch;
    std::optional<Dwt2dSystem> session;
  };
  return run_pool(
      tiles, options.threads,
      [&] {
        Worker w;
        w.scratch.resize(std::min(options.tile_w, pixels.width) *
                         std::min(options.tile_h, pixels.height));
        if (!forward) w.session.emplace(options.backend->make_2d_session(req));
        return w;
      },
      [&](Worker& w, const TileRect& t) {
        const dsp::PlaneView<T> tile{w.scratch.data(), t.w, t.w, t.h};
        const auto src = pixels.window(t.x0, t.y0, t.w, t.h);
        const auto dst = out.window(t.x0, t.y0, t.w, t.h);
        for (std::size_t y = 0; y < t.h; ++y) {
          std::transform(src.row(y), src.row(y) + t.w, tile.row(y),
                         [](std::uint8_t v) {
                           return static_cast<T>(v) - T{dsp::kLevelShift};
                         });
        }
        Dwt2dRunStats stats;
        if constexpr (std::is_same_v<T, std::int32_t>) {
          if (w.session) stats = w.session->transform(tile, options.octaves);
        }
        if (forward) (void)dsp::dwt2d_forward(*forward, tile, options.octaves);
        (void)dsp::dwt2d_inverse(inverse, tile, options.octaves);
        for (std::size_t y = 0; y < t.h; ++y) {
          std::transform(tile.row(y), tile.row(y) + t.w, dst.row(y),
                         [](T v) { return dsp::to_pixel(v, T{dsp::kLevelShift}); });
        }
        return stats;
      });
}

/// The Image entry points: an integer-valued engine runs `run` on the image
/// converted once into an int32 plane (round_to_int32) and stores the result
/// back exactly; the other engines lift the image's doubles.
template <class Run>
TileStats on_image(dsp::Image& img, const TileOptions& options, Run run) {
  if (!integer_valued(options)) return run(img);
  dsp::Plane<std::int32_t> plane = dsp::to_int32_plane(img);
  const TileStats stats = run(plane);
  std::copy(plane.data().begin(), plane.data().end(), img.data().begin());
  return stats;
}

}  // namespace

TileStats tile_forward(dsp::Image& img, const TileOptions& options) {
  return on_image(img, options, [&](auto& plane) {
    return run_tiles(plane.view(), options, /*inverse=*/false);
  });
}

TileStats tile_inverse(dsp::Image& img, const TileOptions& options) {
  return on_image(img, options, [&](auto& plane) {
    return run_tiles(plane.view(), options, /*inverse=*/true);
  });
}

bool integer_valued(const TileOptions& options) {
  return options.backend != nullptr ? options.backend->caps().bit_exact
                                    : dsp::is_fixed(options.method);
}

TileStats tile_forward(dsp::Plane<std::int32_t>& plane,
                       const TileOptions& options) {
  return run_tiles(integer_view(plane, options), options, /*inverse=*/false);
}

TileStats tile_inverse(dsp::Plane<std::int32_t>& plane,
                       const TileOptions& options) {
  return run_tiles(integer_view(plane, options), options, /*inverse=*/true);
}

RoundTrip tile_round_trip(dsp::PlaneView<const std::uint8_t> pixels,
                          const TileOptions& options) {
  RoundTrip rt;
  rt.pgm = dsp::blank_pgm(pixels.width, pixels.height);
  const dsp::PlaneView<std::uint8_t> out =
      dsp::pgm_body(std::span(rt.pgm), pixels.width, pixels.height);
  rt.stats = integer_valued(options)
                 ? round_trip_tiles<std::int32_t>(pixels, out, options)
                 : round_trip_tiles<double>(pixels, out, options);
  return rt;
}

}  // namespace dwt::hw
