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
#include <optional>
#include <span>
#include <string_view>

#include "dsp/dwt1d.hpp"
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
  /// 2-D transforms supported: in-thread through software_method() for a
  /// software engine, through make_2d_session for a netlist engine.
  bool forward_2d = false;
  bool inverse_2d = false;  ///< the 2-D inverse too (software engines)
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

  /// The dsp method a software engine computes; nullopt for netlist
  /// engines.  The tile pipeline runs a software engine in-thread through
  /// this method, exactly as it runs its default path.
  [[nodiscard]] virtual std::optional<dsp::Method> software_method() const {
    return std::nullopt;
  }

  /// Creates a per-worker 2-D session: the figure-4 system around the
  /// engine's shared cached core, which transforms int32 windows in place.
  /// Netlist engines with caps().forward_2d only; throws
  /// std::invalid_argument for the others.  Sessions are single-threaded
  /// and cheap (the netlist, tape and native code come from the
  /// ArtifactCache); create one per worker.
  [[nodiscard]] virtual hw::Dwt2dSystem make_2d_session(
      const BackendRequest& req) const;
};

}  // namespace dwt::core
