// Tile-parallel 2-D DWT pipeline: partitions an image into independent
// tiles (JPEG2000-style tiling), transforms each tile with its own boundary
// extension, and shards the tiles across a worker pool.  Because every tile
// is self-contained the packed output is bit-identical for any thread
// count, and arbitrary image and tile dimensions (including odd and partial
// edge tiles) are legal.
//
// Engine selection is a core::ExecutionBackend handle:
//  - nullptr (default): the dsp 2-D transform selected by `method` runs
//    in-thread (any Method, including the reversible 5/3);
//  - a software backend: the same, with the backend's software_method();
//  - a netlist backend: one 2-D session per worker (a private figure-4
//    system around the shared cached netlist) on int32 tiles, with the
//    per-tile cycle accounting aggregated into the stats.
// Integer-valued engines run on int32 planes; the Image entry points convert
// once for them.  The round trip reads 8-bit pixels and writes a PGM
// document, one tile at a time through each worker's tile scratch.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "dsp/dwt1d.hpp"
#include "dsp/image.hpp"
#include "dsp/plane.hpp"
#include "hw/designs.hpp"
#include "rtl/compiled/exec_tier.hpp"
#include "rtl/compiled/tape.hpp"

namespace dwt::core {
class ExecutionBackend;
}  // namespace dwt::core

namespace dwt::hw {

/// One tile of the grid, in image coordinates.
struct TileRect {
  std::size_t x0 = 0, y0 = 0, w = 0, h = 0;
};

struct TileOptions {
  std::size_t tile_w = 64;   ///< nominal tile width (edge tiles may be thinner)
  std::size_t tile_h = 64;   ///< nominal tile height
  unsigned threads = 0;      ///< worker count; 0 = hardware concurrency
  int octaves = 1;           ///< octaves per tile
  /// In-thread dsp engine; the fixed-point methods run at
  /// dsp::kDefaultFracBits, the precision of the paper's gate-level cores.
  dsp::Method method = dsp::Method::kLiftingFixed;
  /// Execution engine; nullptr runs the dsp transform selected by `method`
  /// in-thread, and a software backend its own software_method() the same
  /// way.  Gate-level backends compute the fixed-point lifting transform
  /// only, so they reject any other `method`.
  const core::ExecutionBackend* backend = nullptr;
  DesignId design = DesignId::kDesign2;  ///< core for gate-level backends
  /// Adder-architecture override for gate-level cores; nullopt keeps the
  /// design's paper realization.  Never changes the transform output.
  std::optional<rtl::AdderArch> adder;
  /// Tape optimization level for the rtl-compiled backend (other engines
  /// ignore it).  Tiling is fault-free streaming, so the full pipeline is
  /// both safe and the default.
  rtl::compiled::OptLevel opt_level = rtl::compiled::OptLevel::kFull;
  /// Execution tier for the rtl-compiled backend (other engines ignore it);
  /// every worker session runs the resolved tier.  See BackendRequest.
  rtl::compiled::ExecTier exec_tier = rtl::compiled::ExecTier::kAuto;
};

struct TileStats {
  std::size_t tiles = 0;           ///< tiles processed
  unsigned threads_used = 0;       ///< workers actually spawned
  std::uint64_t total_cycles = 0;  ///< gate backends: summed core cycles
  std::uint64_t line_passes = 0;   ///< gate backends: summed 1-D passes
};

/// Row-major tile decomposition of a w x h image; edge tiles absorb the
/// remainder, so tiles can be any size from 1 x 1 up to tile_w x tile_h.
/// Each tile's rectangle is computed from its index, so a grid of any
/// size costs no memory.
class TileGrid {
 public:
  /// Throws std::invalid_argument when any dimension is zero.
  TileGrid(std::size_t w, std::size_t h, std::size_t tile_w,
           std::size_t tile_h);

  [[nodiscard]] std::size_t size() const { return cols_ * rows_; }

  /// Tile `i` in row-major order, i < size().
  [[nodiscard]] TileRect operator[](std::size_t i) const {
    const std::size_t x0 = i % cols_ * tile_w_;
    const std::size_t y0 = i / cols_ * tile_h_;
    return {x0, y0, std::min(tile_w_, w_ - x0), std::min(tile_h_, h_ - y0)};
  }

 private:
  std::size_t w_, h_, tile_w_, tile_h_, cols_, rows_;
};

/// In-place tile-parallel forward transform: every tile ends up in the
/// packed LL|HL / LH|HH layout local to the tile.  Deterministic: the
/// output is byte-identical for every thread count.  Every engine lifts
/// each tile where it lies in the plane.  For an integer-valued engine the
/// image is converted once into an int32 plane (dsp::to_int32_plane, so a
/// pixel that is not finite or leaves int32 throws std::overflow_error),
/// transformed there and stored back exactly.
TileStats tile_forward(dsp::Image& plane, const TileOptions& options);

/// Inverse of tile_forward under the same options.  Backends without an
/// inverse (the gate-level engines) are rejected; their forward is
/// bit-identical to the software fixed-point transform, so their output
/// inverts through the default software path.
TileStats tile_inverse(dsp::Image& plane, const TileOptions& options);

/// Whether the engine `options` selects produces integers: the integer dsp
/// methods in-thread, or a bit-exact backend.  Exactly those engines run on
/// an int32 plane (and the Image entry points convert for them).
[[nodiscard]] bool integer_valued(const TileOptions& options);

/// The same transforms on an int32 plane, for integer-valued engines only
/// (std::invalid_argument otherwise).  The software path lifts each tile in
/// place through dsp's integer plane entry point, on int32 wherever its
/// guard admits the tile; a netlist session transforms it in place too.
TileStats tile_forward(dsp::Plane<std::int32_t>& plane,
                       const TileOptions& options);
TileStats tile_inverse(dsp::Plane<std::int32_t>& plane,
                       const TileOptions& options);

/// What tile_round_trip returns.
struct RoundTrip {
  std::vector<std::uint8_t> pgm;  ///< the P5 document of the reconstruction
  TileStats stats;                ///< the forward's
};

/// The round trip of 8-bit pixels (a PGM document's, dsp::pgm_pixels, or a
/// raw payload's, dsp::u8_view) in one pass over the tiles: each worker
/// level-shifts a tile's pixels (v - dsp::kLevelShift) into its own tile
/// scratch -- int32 for an integer-valued engine, double otherwise -- runs
/// the forward then the inverse there, and writes the reconstruction as
/// pixels (dsp::to_pixel) into the tile's rectangle of the returned
/// document.  A netlist engine's forward runs in the worker's own figure-4
/// session and its inverse through the default software path (its forward
/// is bit-identical to kLiftingFixed).  The bytes equal those of the staged
/// dsp::u8_plane -> tile_forward -> tile_inverse -> dsp::render_pgm (on
/// dsp::to_image of the plane for the engines that are not integer-valued),
/// and no frame-sized plane is made.
RoundTrip tile_round_trip(dsp::PlaneView<const std::uint8_t> pixels,
                          const TileOptions& options);

}  // namespace dwt::hw
