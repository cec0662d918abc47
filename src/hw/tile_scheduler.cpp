#include "hw/tile_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/worker_pool.hpp"
#include "core/backend.hpp"
#include "dsp/dwt2d.hpp"
#include "hw/dwt2d_system.hpp"

namespace dwt::hw {
namespace {

void validate(std::size_t w, std::size_t h, const TileOptions& options) {
  if (w == 0 || h == 0) {
    throw std::invalid_argument("tile_scheduler: empty image");
  }
  if (options.tile_w == 0 || options.tile_h == 0) {
    throw std::invalid_argument("tile_scheduler: zero tile dimensions");
  }
  if (options.octaves < 1) {
    throw std::invalid_argument("tile_scheduler: octaves < 1");
  }
  if (options.backend != nullptr) {
    if (!options.backend->caps().forward_2d) {
      throw std::invalid_argument(
          "tile_scheduler: backend does not support 2-D transforms");
    }
    if (options.backend->caps().gate_level &&
        options.method != dsp::Method::kLiftingFixed) {
      throw std::invalid_argument(
          "tile_scheduler: hardware backend implements kLiftingFixed only");
    }
  }
}

core::BackendRequest backend_request(const TileOptions& options) {
  core::BackendRequest req;
  req.design = options.design;
  req.adder = options.adder;
  req.max_octaves = options.octaves;
  req.frac_bits = options.frac_bits;
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
TileStats run_pool(const std::vector<TileRect>& tiles, unsigned threads,
                   MakeState make_state, Process process) {
  TileStats stats;
  stats.tiles = tiles.size();
  // Per-tile cycle accounting lands in a slot per tile and is summed in
  // tile order afterwards, keeping the totals scheduling-independent too.
  std::vector<Dwt2dRunStats> per_tile(tiles.size());
  stats.threads_used = common::run_pool(tiles.size(), threads, [&]() {
    return [&, state = make_state()](std::size_t t) mutable {
      per_tile[t] = process(state, tiles[t]);
    };
  });
  for (const Dwt2dRunStats& s : per_tile) {
    stats.total_cycles += s.total_cycles;
    stats.line_passes += s.line_passes;
  }
  return stats;
}

struct NoState {};

}  // namespace

std::vector<TileRect> tile_grid(std::size_t w, std::size_t h,
                                std::size_t tile_w, std::size_t tile_h) {
  if (w == 0 || h == 0 || tile_w == 0 || tile_h == 0) {
    throw std::invalid_argument("tile_grid: zero dimensions");
  }
  std::vector<TileRect> tiles;
  for (std::size_t y0 = 0; y0 < h; y0 += tile_h) {
    for (std::size_t x0 = 0; x0 < w; x0 += tile_w) {
      tiles.push_back(TileRect{x0, y0, std::min(tile_w, w - x0),
                               std::min(tile_h, h - y0)});
    }
  }
  return tiles;
}

namespace {

/// Every tile of `plane` through the selected engine, in one direction.  A
/// netlist engine (int32 planes only) transforms each tile through one
/// figure-4 system per worker; every other engine lifts it in-thread where
/// it lies.
template <class T>
TileStats run_tiles(dsp::PlaneView<T> plane, const TileOptions& options,
                    bool inverse) {
  validate(plane.width, plane.height, options);
  if (inverse && options.backend != nullptr &&
      !options.backend->caps().inverse_2d) {
    throw std::invalid_argument(
        "tile_inverse: no hardware inverse system; use the software backend "
        "(the hardware forward is bit-identical to kLiftingFixed)");
  }
  const std::vector<TileRect> tiles =
      tile_grid(plane.width, plane.height, options.tile_w, options.tile_h);
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
          (void)dsp::dwt2d_inverse(method.value(), window(t), options.octaves,
                                   options.frac_bits);
        } else {
          (void)dsp::dwt2d_forward(method.value(), window(t), options.octaves,
                                   options.frac_bits);
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

template <class P>
TileStats round_trip(P& plane, const TileOptions& options) {
  const TileStats stats = tile_forward(plane, options);
  TileOptions inv = options;
  if (inv.backend != nullptr && !inv.backend->caps().inverse_2d) {
    inv.backend = nullptr;
  }
  (void)tile_inverse(plane, inv);
  return stats;
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

TileStats tile_round_trip(dsp::Image& img, const TileOptions& options) {
  return on_image(img, options,
                  [&](auto& plane) { return round_trip(plane, options); });
}

TileStats tile_round_trip(dsp::Plane<std::int32_t>& plane,
                          const TileOptions& options) {
  return round_trip(plane, options);
}

}  // namespace dwt::hw
