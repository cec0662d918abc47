// The unified execution seam: one abstraction over every way this repo can
// run the 9/7 lifting transform, from the pure software models to the
// gate-level and FPGA-mapped simulations.  The paper's whole point is
// comparing the *same* transform across implementation styles; the
// ExecutionBackend interface is that comparison surface as an API.  Each
// backend is parameterized by DesignId (gate-level engines elaborate the
// corresponding Table 3 architecture; software engines ignore it) and draws
// its elaboration/compilation artifacts from the shared ArtifactCache, so
// any number of workers can run the same backend without re-elaborating.
//
// Registered engines (see core/registry.hpp):
//   software-float    dsp lifting model, float coefficients  (not bit-exact)
//   software-fixed    dsp fixed-point model -- the bit-exactness reference
//   rtl-interpreted   scalar zero-delay gate-level simulator
//   rtl-compiled      bit-parallel compiled-tape simulator
//   fpga-mapped       APEX-mapped transport-delay simulator (1-D only)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "dsp/dwt1d.hpp"
#include "dsp/image.hpp"
#include "hw/designs.hpp"
#include "hw/dwt2d_system.hpp"
#include "hw/stream_runner.hpp"
#include "rtl/compiled/exec_tier.hpp"
#include "rtl/compiled/tape.hpp"

namespace dwt::core {

/// Parameters a backend needs to instantiate its engine.
struct BackendRequest {
  hw::DesignId design = hw::DesignId::kDesign2;  ///< gate-level core choice
  /// Gate-level cores are sized for this 2-D recursion depth (LL
  /// coefficients outgrow the paper's 8-bit inputs past one octave).
  int max_octaves = 1;
  /// Adder-architecture override for gate-level cores: swaps the design's
  /// paper realization for any member of the rtl::AdderArch family (the
  /// (design x adder) sweep axis).  nullopt keeps the paper's choice.
  /// Results never change -- every architecture computes identical words --
  /// only area/timing/power and the elaborated netlist do.
  std::optional<rtl::AdderArch> adder;
  int frac_bits = dsp::kDefaultFracBits;  ///< software fixed-point precision
  /// Tape optimization level for the rtl-compiled backend (ignored by every
  /// other engine).  Streaming through a backend is fault-free, so the full
  /// pipeline -- which trades fault-overlay exactness for fewer
  /// instructions -- is the default; ports survive every pass.
  rtl::compiled::OptLevel opt_level = rtl::compiled::OptLevel::kFull;
  /// Execution tier for the rtl-compiled backend (other engines ignore it).
  /// kAuto resolves to the fastest tier the host supports -- the JIT'd
  /// native tier where available, the switch interpreter otherwise -- and
  /// the DWT_EXEC_TIER environment variable overrides any request.  Tier
  /// choice never changes results; every tier computes identical words.
  rtl::compiled::ExecTier exec_tier = rtl::compiled::ExecTier::kAuto;
};

/// Capability flags: what a backend's results mean and which entry points
/// it implements.
struct BackendCaps {
  bool gate_level = false;      ///< backed by an elaborated netlist
  bool cycle_accurate = false;  ///< StreamResult::cycles is meaningful
  /// Output is bit-identical to the software fixed-point reference.
  bool bit_exact = false;
  bool forward_2d = false;  ///< make_2d_session supported
  bool inverse_2d = false;  ///< 2-D sessions implement inverse()
};

/// Per-worker execution state for 2-D transforms (e.g. one gate-level core
/// simulation per tile-scheduler worker).  Sessions are single-threaded;
/// create one per worker.  The expensive shared artifacts behind a session
/// come from the ArtifactCache, so sessions are cheap to create.
class Backend2dSession {
 public:
  virtual ~Backend2dSession() = default;

  /// In-place multi-octave forward transform (packed LL|HL / LH|HH layout,
  /// identical to dsp::dwt2d_forward's).  Returns cycle accounting (zeros
  /// for software backends).
  virtual hw::Dwt2dRunStats forward(dsp::Image& plane, int octaves) = 0;

  /// Inverse of forward().  Throws std::invalid_argument when the backend
  /// does not support it (caps().inverse_2d == false).
  virtual void inverse(dsp::Image& plane, int octaves) = 0;
};

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::string_view description() const = 0;
  [[nodiscard]] virtual BackendCaps caps() const = 0;

  /// Streams integer samples (any non-zero length; odd lengths follow the
  /// JPEG2000 (1,1) symmetric extension) through the engine and returns the
  /// coefficient window.  Gate-level backends report consumed clock cycles;
  /// software backends report 0.
  [[nodiscard]] virtual hw::StreamResult stream(
      const BackendRequest& req, std::span<const std::int64_t> x) const = 0;

  /// Creates a per-worker 2-D session.  Throws std::invalid_argument when
  /// caps().forward_2d is false.
  [[nodiscard]] virtual std::unique_ptr<Backend2dSession> make_2d_session(
      const BackendRequest& req) const;
};

}  // namespace dwt::core
