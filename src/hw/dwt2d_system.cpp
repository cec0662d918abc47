#include "hw/dwt2d_system.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "dsp/dwt2d.hpp"

namespace dwt::hw {

LineCore scalar_core(std::shared_ptr<const BuiltDatapath> dp) {
  auto sim = std::make_shared<rtl::Simulator>(dp->netlist);
  return [dp = std::move(dp), sim = std::move(sim)](
             std::span<const std::int64_t> line) {
    return run_stream(*dp, *sim, line);
  };
}

LineCore compiled_core(
    std::shared_ptr<const BuiltDatapath> dp,
    std::shared_ptr<const rtl::compiled::Tape> tape,
    std::shared_ptr<const rtl::compiled::NativeBlock> native) {
  auto session =
      std::make_shared<rtl::compiled::WideBatchSession<1>>(std::move(tape));
  session->sim().set_native(std::move(native));
  return [dp = std::move(dp), session = std::move(session)](
             std::span<const std::int64_t> line) {
    return std::move(
        run_stream_batch(*dp, *session, line, /*lanes=*/1).front());
  };
}

LineCore mapped_core(std::shared_ptr<const BuiltDatapath> dp,
                     std::shared_ptr<const fpga::MappedNetlist> mapped) {
  auto sim = std::make_shared<fpga::MappedActivitySim>(*mapped);
  return [dp = std::move(dp), mapped = std::move(mapped),
          sim = std::move(sim)](std::span<const std::int64_t> line) {
    return run_stream_mapped(*dp, *sim, line);
  };
}

Dwt2dSystem::Dwt2dSystem(DesignId design, int max_octaves)
    : core_(scalar_core(std::make_shared<const BuiltDatapath>(
          build_lifting_datapath(design_config(design, max_octaves))))) {}

Dwt2dSystem::Dwt2dSystem(LineCore core) : core_(std::move(core)) {}

Dwt2dRunStats Dwt2dSystem::transform(dsp::PlaneView<std::int32_t> window,
                                     int octaves) {
  if (octaves < 1) throw std::invalid_argument("Dwt2dSystem: octaves < 1");
  if (window.width == 0 || window.height == 0) {
    throw std::invalid_argument("Dwt2dSystem: empty octave dimensions");
  }
  Dwt2dRunStats stats;
  // The line buffer between the frame memory and the core.
  std::vector<std::int64_t> line;
  // The memory controller addresses one row (then one column) at a time
  // into the 1D core and writes the packed sub-bands back: ceil(n/2) low
  // then floor(n/2) high.
  dsp::sweep_octaves(
      window, octaves, /*inverse=*/false,
      [&](std::int32_t* first, std::size_t n, std::size_t stride,
          std::size_t lanes, std::size_t lane_stride) {
        // One line pass through the core per line.
        for (std::size_t j = 0; j < lanes; ++j) {
          std::int32_t* x = first + j * lane_stride;
          line.resize(n);
          for (std::size_t k = 0; k < n; ++k) line[k] = x[k * stride];
          const StreamResult r = core_(line);
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
  return stats;
}

}  // namespace dwt::hw
