#include "core/registry.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/artifact_cache.hpp"
#include "dsp/dwt2d.hpp"
#include "fpga/mapped_sim.hpp"

namespace dwt::core {
namespace {

// ---------------------------------------------------------------------------
// Software engines: the dsp lifting models.  DesignId is irrelevant (every
// paper design computes the same transform), and the fixed-point model runs
// at dsp::kDefaultFracBits, the precision of the gate-level cores.  The
// tile pipeline runs their 2-D transform in-thread through
// software_method(), so they build no 2-D session.

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

  hw::StreamResult stream(const BackendRequest& /*req*/,
                          std::span<const std::int64_t> x) const override {
    // A 1-D transform is a one-row window of the 2-D transform.  The float
    // model's fractional coefficients are rounded into the integer stream
    // domain (hence caps().bit_exact == false for it).
    dsp::Image row(x.size(), 1);
    std::transform(x.begin(), x.end(), row.data().begin(), [](std::int64_t v) {
      return static_cast<double>(dsp::narrow_to_int32(v));
    });
    dsp::dwt2d_forward(method_, row, 1);
    const auto rounded = [](double v) {
      return static_cast<std::int64_t>(std::llround(v));
    };
    const auto mid =
        row.data().begin() + static_cast<std::ptrdiff_t>((x.size() + 1) / 2);
    hw::StreamResult r;
    std::transform(row.data().begin(), mid, std::back_inserter(r.low), rounded);
    std::transform(mid, row.data().end(), std::back_inserter(r.high), rounded);
    return r;
  }

  std::optional<dsp::Method> software_method() const override {
    return method_;
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

/// The cached datapath of a request, aliased so the returned pointer shares
/// the artifact's lifetime and the netlist outlives every simulator built
/// on it.
std::shared_ptr<const hw::BuiltDatapath> cached_datapath(
    const BackendRequest& req) {
  std::shared_ptr<const CachedDesign> d = ArtifactCache::instance().design(
      hw::design_config(req.design, req.max_octaves, req.adder));
  const hw::BuiltDatapath* dp = &d->dp;
  return {std::move(d), dp};
}

/// A netlist engine is its 1-D core: stream() runs a fresh core over one
/// line, and the 2-D session is the figure-4 system around one.
class NetlistBackend final : public ExecutionBackend {
 public:
  using MakeCore = hw::LineCore (*)(const BackendRequest&);

  NetlistBackend(std::string_view name, std::string_view description,
                 MakeCore make_core)
      : name_(name), description_(description), make_core_(make_core) {}

  std::string_view name() const override { return name_; }
  std::string_view description() const override { return description_; }

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
    return make_core_(req)(x);
  }

  hw::Dwt2dSystem make_2d_session(const BackendRequest& req) const override {
    return hw::Dwt2dSystem(make_core_(req));
  }

 private:
  std::string_view name_;
  std::string_view description_;
  MakeCore make_core_;
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
  static const NetlistBackend rtl_interpreted{
      "rtl-interpreted",
      "gate-level netlist on the scalar zero-delay simulator",
      [](const BackendRequest& req) {
        return hw::scalar_core(cached_datapath(req));
      }};
  static const NetlistBackend rtl_compiled{
      "rtl-compiled",
      "gate-level netlist on the bit-parallel compiled-tape simulator",
      [](const BackendRequest& req) {
        ArtifactCache& cache = ArtifactCache::instance();
        const hw::DatapathConfig cfg =
            hw::design_config(req.design, req.max_octaves, req.adder);
        return hw::compiled_core(
            cached_datapath(req),
            cache.tape(cfg, rtl::HardeningStyle::kNone, req.opt_level),
            cache.native_for(req.exec_tier, cfg, rtl::HardeningStyle::kNone,
                             req.opt_level, 1));
      }};
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
