// 2D-DWT system model (paper figure 4): image memory, a memory controller
// that schedules row then column passes (performing the boundary mirroring)
// and one 1D-DWT core.  The controller runs the core cycle-accurately and
// accounts the cycles every octave consumes.  The core is one LineCore, on
// the scalar zero-delay simulator, on lane 0 of the bit-parallel compiled
// engine or on the APEX-mapped transport-delay simulator; all three produce
// bit-identical coefficients and cycle counts.  The frame memory is an int32
// plane window, lifted in place: every netlist engine's 2-D session
// (core::ExecutionBackend::make_2d_session) is this system around the
// engine's core, and it is the core's one consumer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "dsp/plane.hpp"
#include "hw/designs.hpp"
#include "hw/stream_runner.hpp"
#include "rtl/compiled/native_block.hpp"

namespace dwt::hw {

/// A netlist engine's 1D-DWT core: one line of samples in, its coefficient
/// window and the clock cycles it consumed out (the run_stream contract).
/// Lines run back to back on one simulator, whose stale pipeline state the
/// guard pairs of every run_stream* feed flush first.  Copies of a core
/// share that simulator, so a core serves one thread at a time.
using LineCore = std::function<StreamResult(std::span<const std::int64_t>)>;

/// The core of `dp` on the scalar zero-delay simulator.
[[nodiscard]] LineCore scalar_core(std::shared_ptr<const BuiltDatapath> dp);

/// The core of `dp` on lane 0 of the bit-parallel compiled engine, running
/// `tape` (compiled from dp's netlist).  `native` is the tape's cache-shared
/// JIT block (core::ArtifactCache::native_for), or null to run the
/// interpreter; tier choice never changes coefficients or cycle counts.
[[nodiscard]] LineCore compiled_core(
    std::shared_ptr<const BuiltDatapath> dp,
    std::shared_ptr<const rtl::compiled::Tape> tape,
    std::shared_ptr<const rtl::compiled::NativeBlock> native);

/// The core of `dp` on the transport-delay simulator of `mapped`, the APEX
/// mapping of dp's netlist (mapped->source is &dp->netlist).
[[nodiscard]] LineCore mapped_core(
    std::shared_ptr<const BuiltDatapath> dp,
    std::shared_ptr<const fpga::MappedNetlist> mapped);

struct Dwt2dRunStats {
  std::uint64_t total_cycles = 0;
  std::uint64_t line_passes = 0;   ///< 1-D transforms executed

  /// Transform time at a clock frequency (throughput metric).
  [[nodiscard]] double milliseconds_at(double f_mhz) const {
    return static_cast<double>(total_cycles) / (f_mhz * 1e3);
  }
};

class Dwt2dSystem {
 public:
  /// Builds the system around a freshly elaborated 1D core on the scalar
  /// simulator.  The paper's core has signed 8-bit inputs, which only
  /// accommodates one octave; for deeper recursions the controller
  /// provisions a wider core (LL coefficients grow roughly 1.2 bits per
  /// octave), sized by interval analysis instead of the paper's measured
  /// 8-bit-input ranges (see design_config).
  explicit Dwt2dSystem(DesignId design, int max_octaves = 1);

  /// The system around `core`.
  explicit Dwt2dSystem(LineCore core);

  /// In-place multi-octave forward transform of an int32 window (pixels
  /// already DC-level-shifted to signed values), one line at a time through
  /// an int64 line buffer.  Returns cycle accounting.  The transformed
  /// window matches dsp's int32 plane entry point for kLiftingFixed bit for
  /// bit; samples outside the window are untouched.  Throws
  /// std::overflow_error (narrow_to_int32) if a coefficient leaves int32.
  Dwt2dRunStats transform(dsp::PlaneView<std::int32_t> window, int octaves);

 private:
  LineCore core_;
};

}  // namespace dwt::hw
