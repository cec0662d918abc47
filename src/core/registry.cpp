#include "core/registry.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/artifact_cache.hpp"
#include "dsp/dwt2d.hpp"
#include "fpga/mapped_sim.hpp"
#include "rtl/compiled/batch_fault.hpp"
#include "rtl/simulator.hpp"

namespace dwt::core {
namespace {

// ---------------------------------------------------------------------------
// Software engines: the dsp lifting models.  DesignId is irrelevant (every
// paper design computes the same transform); only frac_bits matters.

class Software2dSession final : public Backend2dSession {
 public:
  Software2dSession(dsp::Method method, int frac_bits)
      : method_(method), frac_bits_(frac_bits) {}

  hw::Dwt2dRunStats forward(dsp::Image& plane, int octaves) override {
    dsp::dwt2d_forward(method_, plane, octaves, frac_bits_);
    hw::Dwt2dRunStats stats;
    stats.octaves = octaves;
    return stats;
  }

  void inverse(dsp::Image& plane, int octaves) override {
    dsp::dwt2d_inverse(method_, plane, octaves, frac_bits_);
  }

 private:
  dsp::Method method_;
  int frac_bits_;
};

class SoftwareBackend final : public ExecutionBackend {
 public:
  SoftwareBackend(std::string_view name, std::string_view description,
                  dsp::Method method, bool bit_exact)
      : name_(name),
        description_(description),
        method_(method),
        bit_exact_(bit_exact) {}

  std::string_view name() const override { return name_; }
  std::string_view description() const override { return description_; }

  BackendCaps caps() const override {
    BackendCaps c;
    c.bit_exact = bit_exact_;
    c.forward_2d = true;
    c.inverse_2d = true;
    return c;
  }

  hw::StreamResult stream(const BackendRequest& req,
                          std::span<const std::int64_t> x) const override {
    std::vector<double> d(x.begin(), x.end());
    const dsp::Subbands1d sb = dsp::dwt1d_forward(method_, d, req.frac_bits);
    hw::StreamResult r;
    r.low.resize(sb.low.size());
    r.high.resize(sb.high.size());
    // The fixed-point model already produces exact integers; the float
    // model's fractional coefficients are rounded into the integer stream
    // domain (hence caps().bit_exact == false for it -- dsp::dwt1d_forward
    // gives its full-precision output).
    for (std::size_t i = 0; i < sb.low.size(); ++i) {
      r.low[i] = static_cast<std::int64_t>(std::llround(sb.low[i]));
    }
    for (std::size_t i = 0; i < sb.high.size(); ++i) {
      r.high[i] = static_cast<std::int64_t>(std::llround(sb.high[i]));
    }
    return r;
  }

  std::unique_ptr<Backend2dSession> make_2d_session(
      const BackendRequest& req) const override {
    return std::make_unique<Software2dSession>(method_, req.frac_bits);
  }

 private:
  std::string_view name_;
  std::string_view description_;
  dsp::Method method_;
  bool bit_exact_;
};

// ---------------------------------------------------------------------------
// Gate-level engines.  All artifacts come from the shared ArtifactCache;
// per-call/per-session objects carry only simulator state.

/// 2-D session around the figure-4 system model, on either line engine.
class GateSession final : public Backend2dSession {
 public:
  explicit GateSession(std::shared_ptr<const hw::BuiltDatapath> core)
      : system_(std::move(core)) {}
  GateSession(std::shared_ptr<const hw::BuiltDatapath> core,
              std::shared_ptr<const rtl::compiled::Tape> tape,
              std::shared_ptr<const rtl::compiled::NativeBlock> native)
      : system_(std::move(core), std::move(tape), std::move(native)) {}

  hw::Dwt2dRunStats forward(dsp::Image& plane, int octaves) override {
    return system_.transform(plane, octaves);
  }

  void inverse(dsp::Image&, int) override {
    throw std::invalid_argument(
        "gate-level backends do not implement the 2-D inverse");
  }

 private:
  hw::Dwt2dSystem system_;
};

/// Aliases the cached artifact's datapath: the returned pointer shares the
/// artifact's lifetime, so the netlist outlives every simulator built on it.
std::shared_ptr<const hw::BuiltDatapath> share_datapath(
    std::shared_ptr<const CachedDesign> d) {
  const hw::BuiltDatapath* dp = &d->dp;
  return {std::move(d), dp};
}

class RtlInterpretedBackend final : public ExecutionBackend {
 public:
  std::string_view name() const override { return "rtl-interpreted"; }
  std::string_view description() const override {
    return "gate-level netlist on the scalar zero-delay simulator";
  }

  BackendCaps caps() const override {
    BackendCaps c;
    c.gate_level = true;
    c.cycle_accurate = true;
    c.bit_exact = true;
    c.forward_2d = true;
    return c;
  }

  hw::StreamResult stream(const BackendRequest& req,
                          std::span<const std::int64_t> x) const override {
    const std::shared_ptr<const CachedDesign> d = ArtifactCache::instance().design(
        hw::design_config(req.design, req.max_octaves, req.adder));
    rtl::Simulator sim(d->dp.netlist);
    return hw::run_stream(d->dp, sim, x);
  }

  std::unique_ptr<Backend2dSession> make_2d_session(
      const BackendRequest& req) const override {
    return std::make_unique<GateSession>(
        share_datapath(ArtifactCache::instance().design(
            hw::design_config(req.design, req.max_octaves, req.adder))));
  }
};

class RtlCompiledBackend final : public ExecutionBackend {
 public:
  std::string_view name() const override { return "rtl-compiled"; }
  std::string_view description() const override {
    return "gate-level netlist on the bit-parallel compiled-tape simulator";
  }

  BackendCaps caps() const override {
    BackendCaps c;
    c.gate_level = true;
    c.cycle_accurate = true;
    c.bit_exact = true;
    c.forward_2d = true;
    return c;
  }

  hw::StreamResult stream(const BackendRequest& req,
                          std::span<const std::int64_t> x) const override {
    ArtifactCache& cache = ArtifactCache::instance();
    const hw::DatapathConfig cfg =
        hw::design_config(req.design, req.max_octaves, req.adder);
    const std::shared_ptr<const CachedDesign> d = cache.design(cfg);
    rtl::compiled::BatchFaultSession session(
        cache.tape(cfg, rtl::HardeningStyle::kNone, req.opt_level));
    session.sim().set_native(cache.native_for(
        req.exec_tier, cfg, rtl::HardeningStyle::kNone, req.opt_level, 1));
    return std::move(
        hw::run_stream_batch(d->dp, session, x, /*lanes=*/1).front());
  }

  std::unique_ptr<Backend2dSession> make_2d_session(
      const BackendRequest& req) const override {
    ArtifactCache& cache = ArtifactCache::instance();
    const hw::DatapathConfig cfg =
        hw::design_config(req.design, req.max_octaves, req.adder);
    return std::make_unique<GateSession>(
        share_datapath(cache.design(cfg)),
        cache.tape(cfg, rtl::HardeningStyle::kNone, req.opt_level),
        cache.native_for(req.exec_tier, cfg, rtl::HardeningStyle::kNone,
                         req.opt_level, 1));
  }
};

class FpgaMappedBackend final : public ExecutionBackend {
 public:
  std::string_view name() const override { return "fpga-mapped"; }
  std::string_view description() const override {
    return "APEX-mapped netlist on the transport-delay activity simulator "
           "(1-D only)";
  }

  BackendCaps caps() const override {
    BackendCaps c;
    c.gate_level = true;
    c.cycle_accurate = true;
    c.bit_exact = true;
    return c;
  }

  hw::StreamResult stream(const BackendRequest& req,
                          std::span<const std::int64_t> x) const override {
    const std::shared_ptr<const MappedDesign> md =
        ArtifactCache::instance().mapped(
            hw::design_config(req.design, req.max_octaves, req.adder));
    fpga::MappedActivitySim sim(md->mapped);
    return hw::run_stream_mapped(md->dp, sim, x);
  }
};

}  // namespace

const std::vector<const ExecutionBackend*>& all_backends() {
  static const SoftwareBackend software_float{
      "software-float",
      "lifting scheme, floating-point coefficients (accuracy reference)",
      dsp::Method::kLiftingFloat, /*bit_exact=*/false};
  static const SoftwareBackend software_fixed{
      "software-fixed",
      "lifting scheme, fixed-point coefficients (bit-exactness reference)",
      dsp::Method::kLiftingFixed, /*bit_exact=*/true};
  static const RtlInterpretedBackend rtl_interpreted;
  static const RtlCompiledBackend rtl_compiled;
  static const FpgaMappedBackend fpga_mapped;
  static const std::vector<const ExecutionBackend*> backends = {
      &software_float, &software_fixed, &rtl_interpreted, &rtl_compiled,
      &fpga_mapped};
  return backends;
}

const ExecutionBackend* find_backend(std::string_view name) {
  for (const ExecutionBackend* b : all_backends()) {
    if (b->name() == name) return b;
  }
  return nullptr;
}

std::string backend_names(std::string_view sep) {
  std::string out;
  for (const ExecutionBackend* b : all_backends()) {
    if (!out.empty()) out += sep;
    out += b->name();
  }
  return out;
}

}  // namespace dwt::core
