#include "hw/dwt2d_system.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "dsp/dwt2d.hpp"

namespace dwt::hw {

Dwt2dSystem::Dwt2dSystem(DesignId design, int max_octaves)
    : core_(std::make_shared<const BuiltDatapath>(
          build_lifting_datapath(design_config(design, max_octaves)))),
      sim_(std::make_unique<rtl::Simulator>(core_->netlist)) {}

Dwt2dSystem::Dwt2dSystem(std::shared_ptr<const BuiltDatapath> core)
    : core_(std::move(core)),
      sim_(std::make_unique<rtl::Simulator>(core_->netlist)) {}

Dwt2dSystem::Dwt2dSystem(
    std::shared_ptr<const BuiltDatapath> core,
    std::shared_ptr<const rtl::compiled::Tape> tape,
    std::shared_ptr<const rtl::compiled::NativeBlock> native)
    : core_(std::move(core)),
      batch_(std::make_unique<rtl::compiled::WideBatchSession<1>>(
          std::move(tape))) {
  batch_->sim().set_native(std::move(native));
}

Dwt2dRunStats Dwt2dSystem::transform(dsp::PlaneView<std::int32_t> window,
                                     int octaves) {
  if (octaves < 1) throw std::invalid_argument("Dwt2dSystem: octaves < 1");
  if (window.width == 0 || window.height == 0) {
    throw std::invalid_argument("Dwt2dSystem: empty octave dimensions");
  }
  Dwt2dRunStats stats;
  stats.octaves = octaves;
  // The line buffer between the frame memory and the core.
  std::vector<std::int64_t> line;
  std::size_t w = window.width;
  std::size_t h = window.height;
  for (int o = 0; o < octaves; ++o) {
    // The memory controller addresses one row (then one column) at a time
    // into the 1D core and writes the packed sub-bands back: ceil(n/2) low
    // then floor(n/2) high.
    dsp::sweep_octave(
        window.data, window.pitch, w, h, /*inverse=*/false,
        [&](std::int32_t* first, std::size_t n, std::size_t stride,
            std::size_t lanes, std::size_t lane_stride) {
          // One line pass through the core per line.
          for (std::size_t j = 0; j < lanes; ++j) {
            std::int32_t* x = first + j * lane_stride;
            line.resize(n);
            for (std::size_t k = 0; k < n; ++k) line[k] = x[k * stride];
            // Either engine may carry stale pipeline state from the previous
            // line; the guard pairs run_stream* feeds flush it first.
            const StreamResult r =
                batch_ ? std::move(run_stream_batch(*core_, *batch_, line,
                                                    /*lanes=*/1)
                                       .front())
                       : run_stream(*core_, *sim_, line);
            stats.total_cycles += r.cycles;
            ++stats.line_passes;
            const std::size_t nl = r.low.size();
            for (std::size_t k = 0; k < nl; ++k) {
              x[k * stride] = dsp::narrow_to_int32(r.low[k]);
            }
            for (std::size_t k = 0; k < r.high.size(); ++k) {
              x[(nl + k) * stride] = dsp::narrow_to_int32(r.high[k]);
            }
          }
        });
    w = (w + 1) / 2;
    h = (h + 1) / 2;
  }
  return stats;
}

}  // namespace dwt::hw
