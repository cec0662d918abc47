#include "hw/dwt2d_system.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace dwt::hw {
namespace {

std::vector<std::int64_t> to_int_line(const std::vector<double>& v) {
  std::vector<std::int64_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = static_cast<std::int64_t>(std::llround(v[i]));
  }
  return out;
}

std::vector<double> to_double_line(const std::vector<std::int64_t>& line) {
  return {line.begin(), line.end()};
}

}  // namespace

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
      batch_(std::make_unique<rtl::compiled::BatchFaultSession>(
          std::move(tape))) {
  batch_->sim().set_native(std::move(native));
}

void Dwt2dSystem::transform_line(std::vector<std::int64_t>& line,
                                 Dwt2dRunStats& stats) {
  // Either engine may carry stale pipeline state from the previous line;
  // the guard pairs run_stream* feeds flush it before the payload window.
  StreamResult r = batch_
                       ? std::move(run_stream_batch(*core_, *batch_, line,
                                                    /*lanes=*/1)
                                       .front())
                       : run_stream(*core_, *sim_, line);
  stats.total_cycles += r.cycles;
  ++stats.line_passes;
  line.clear();
  line.insert(line.end(), r.low.begin(), r.low.end());
  line.insert(line.end(), r.high.begin(), r.high.end());
}

Dwt2dRunStats Dwt2dSystem::transform(dsp::Image& plane, int octaves) {
  if (octaves < 1) throw std::invalid_argument("Dwt2dSystem: octaves < 1");
  Dwt2dRunStats stats;
  stats.octaves = octaves;
  std::size_t w = plane.width();
  std::size_t h = plane.height();
  for (int o = 0; o < octaves; ++o) {
    if (w == 0 || h == 0) {
      throw std::invalid_argument("Dwt2dSystem: empty octave dimensions");
    }
    // The memory controller addresses one row (then one column) at a time
    // into the 1D core and writes the packed sub-bands back; transform_line
    // already leaves each line packed as ceil(n/2) low then floor(n/2) high.
    for (std::size_t y = 0; y < h; ++y) {
      std::vector<std::int64_t> line = to_int_line(plane.row(y, w));
      transform_line(line, stats);
      plane.set_row(y, to_double_line(line));
    }
    for (std::size_t x = 0; x < w; ++x) {
      std::vector<std::int64_t> line = to_int_line(plane.col(x, h));
      transform_line(line, stats);
      plane.set_col(x, to_double_line(line));
    }
    w = (w + 1) / 2;
    h = (h + 1) / 2;
  }
  return stats;
}

}  // namespace dwt::hw
