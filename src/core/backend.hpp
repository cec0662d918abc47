// The unified execution seam: one engine type over every way this repo can
// run the 9/7 lifting transform, from the pure software models to the
// gate-level and FPGA-mapped simulations.  The paper's whole point is
// comparing the *same* transform across implementation styles; every style
// is a row of the registry (core/registry.hpp) holding one of two things:
//   - the dsp method a software engine runs in-thread, exactly as the tile
//     pipeline runs its default path, or
//   - the line-core factory of a netlist engine: its 2-D session is the
//     figure-4 system (hw::Dwt2dSystem) around one 1-D core, which lifts
//     int32 windows in place.
// Netlist engines are parameterized by DesignId (they elaborate the
// corresponding Table 3 architecture) and draw their elaboration,
// compilation and mapping artifacts from the shared ArtifactCache, so any
// number of workers can run the same engine without re-elaborating.
//
// Registered engines:
//   software-float    dsp lifting model, float coefficients  (not bit-exact)
//   software-fixed    dsp fixed-point model -- the bit-exactness reference
//   rtl-interpreted   scalar zero-delay gate-level simulator
//   rtl-compiled      bit-parallel compiled-tape simulator
//   fpga-mapped       APEX-mapped transport-delay simulator
#pragma once

#include <optional>
#include <string_view>
#include <variant>

#include "dsp/dwt1d.hpp"
#include "hw/designs.hpp"
#include "hw/dwt2d_system.hpp"
#include "rtl/compiled/exec_tier.hpp"
#include "rtl/compiled/tape.hpp"

namespace dwt::core {

/// Parameters a netlist engine needs to build its core.
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

/// What an engine's results mean; derived from what the engine holds.
struct BackendCaps {
  /// Backed by an elaborated netlist, whose 2-D sessions count the clock
  /// cycles every line consumes.
  bool gate_level = false;
  /// Output is bit-identical to the software fixed-point reference.
  bool bit_exact = false;
  bool inverse_2d = false;  ///< a 2-D inverse too (software engines)
};

/// One engine of the registry.
class ExecutionBackend {
 public:
  /// A netlist engine's core factory: the 1-D core of the request's design.
  using MakeCore = hw::LineCore (*)(const BackendRequest&);

  constexpr ExecutionBackend(std::string_view name,
                             std::string_view description, dsp::Method method)
      : name_(name), description_(description), engine_(method) {}
  constexpr ExecutionBackend(std::string_view name,
                             std::string_view description, MakeCore make_core)
      : name_(name), description_(description), engine_(make_core) {}

  [[nodiscard]] std::string_view name() const { return name_; }
  [[nodiscard]] std::string_view description() const { return description_; }

  [[nodiscard]] BackendCaps caps() const {
    const std::optional<dsp::Method> method = software_method();
    BackendCaps c;
    c.gate_level = !method;
    c.bit_exact = !method || *method == dsp::Method::kLiftingFixed;
    c.inverse_2d = method.has_value();
    return c;
  }

  /// The dsp method a software engine computes; nullopt for netlist
  /// engines.  The tile pipeline runs a software engine in-thread through
  /// this method, exactly as it runs its default path.
  [[nodiscard]] std::optional<dsp::Method> software_method() const {
    if (const dsp::Method* m = std::get_if<dsp::Method>(&engine_)) return *m;
    return std::nullopt;
  }

  /// Creates a per-worker 2-D session: the figure-4 system around a fresh
  /// core of the request's design, which transforms int32 windows in place.
  /// Netlist engines only; throws std::invalid_argument for a software
  /// engine.  Sessions are single-threaded and cheap (the netlist, tape,
  /// mapping and native code come from the ArtifactCache); create one per
  /// worker.
  [[nodiscard]] hw::Dwt2dSystem make_2d_session(
      const BackendRequest& req) const;

 private:
  std::string_view name_;
  std::string_view description_;
  std::variant<dsp::Method, MakeCore> engine_;
};

}  // namespace dwt::core
