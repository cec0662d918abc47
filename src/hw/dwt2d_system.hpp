// 2D-DWT system model (paper figure 4): image memory, a memory controller
// that schedules row then column passes (performing the boundary mirroring)
// and one 1D-DWT core.  The controller runs the core cycle-accurately and
// accounts the cycles every octave consumes.  The core runs on either the
// scalar zero-delay simulator or the bit-parallel compiled engine (lane 0);
// both produce bit-identical coefficients and cycle counts.
#pragma once

#include <cstdint>
#include <memory>

#include "dsp/image.hpp"
#include "hw/designs.hpp"
#include "hw/stream_runner.hpp"
#include "rtl/compiled/native_block.hpp"

namespace dwt::hw {

struct Dwt2dRunStats {
  std::uint64_t total_cycles = 0;
  std::uint64_t line_passes = 0;   ///< 1-D transforms executed
  int octaves = 0;

  /// Transform time at a clock frequency (throughput metric).
  [[nodiscard]] double milliseconds_at(double f_mhz) const {
    return static_cast<double>(total_cycles) / (f_mhz * 1e3);
  }
};

class Dwt2dSystem {
 public:
  /// Builds the system around a freshly elaborated 1D core.  The paper's
  /// core has signed 8-bit inputs, which only accommodates one octave; for
  /// deeper recursions the controller provisions a wider core (LL
  /// coefficients grow roughly 1.2 bits per octave), sized by interval
  /// analysis instead of the paper's measured 8-bit-input ranges (see
  /// design_config).
  explicit Dwt2dSystem(DesignId design, int max_octaves = 1);

  /// Shares a pre-elaborated core (typically from core::ArtifactCache, so
  /// many workers reuse one netlist) and runs lines on the scalar
  /// zero-delay simulator.
  explicit Dwt2dSystem(std::shared_ptr<const BuiltDatapath> core);

  /// Shares a pre-elaborated core plus its compiled tape and runs lines on
  /// the bit-parallel compiled engine (lane 0).  `native` is the tape's
  /// cache-shared JIT block (core::ArtifactCache::native_for), or null to
  /// run the interpreter; tier choice never changes the transform's
  /// coefficients or cycle counts.
  Dwt2dSystem(std::shared_ptr<const BuiltDatapath> core,
              std::shared_ptr<const rtl::compiled::Tape> tape,
              std::shared_ptr<const rtl::compiled::NativeBlock> native);

  /// In-place multi-octave forward transform of an integer-valued plane
  /// (pixels already DC-level-shifted to signed values).  Returns cycle
  /// accounting.  The transformed plane matches the software fixed-point
  /// lifting transform bit for bit.
  Dwt2dRunStats transform(dsp::Image& plane, int octaves);

  [[nodiscard]] const BuiltDatapath& core() const { return *core_; }

 private:
  void transform_line(std::vector<std::int64_t>& line, Dwt2dRunStats& stats);

  std::shared_ptr<const BuiltDatapath> core_;
  std::unique_ptr<rtl::Simulator> sim_;
  std::unique_ptr<rtl::compiled::BatchFaultSession> batch_;
};

}  // namespace dwt::hw
