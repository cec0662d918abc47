#include "core/registry.hpp"

#include <memory>
#include <stdexcept>
#include <string>

#include "core/artifact_cache.hpp"

namespace dwt::core {
namespace {

hw::DatapathConfig request_config(const BackendRequest& req) {
  return hw::design_config(req.design, req.max_octaves, req.adder);
}

/// The cached datapath of a request, aliased so the returned pointer shares
/// the artifact's lifetime and the netlist outlives every simulator built
/// on it.
std::shared_ptr<const hw::BuiltDatapath> cached_datapath(
    const BackendRequest& req) {
  const std::shared_ptr<const CachedDesign> d =
      ArtifactCache::instance().design(request_config(req));
  return {d, &d->dp};
}

// The netlist engines' core factories.  All artifacts come from the shared
// ArtifactCache; a core carries only simulator state.

hw::LineCore interpreted_line_core(const BackendRequest& req) {
  return hw::scalar_core(cached_datapath(req));
}

hw::LineCore compiled_line_core(const BackendRequest& req) {
  ArtifactCache& cache = ArtifactCache::instance();
  const hw::DatapathConfig cfg = request_config(req);
  return hw::compiled_core(
      cached_datapath(req),
      cache.tape(cfg, rtl::HardeningStyle::kNone, req.opt_level),
      cache.native_for(req.exec_tier, cfg, rtl::HardeningStyle::kNone,
                       req.opt_level, 1));
}

hw::LineCore mapped_line_core(const BackendRequest& req) {
  const std::shared_ptr<const MappedDesign> md =
      ArtifactCache::instance().mapped(request_config(req));
  // The mapping's simplified netlist has its own streaming ports (md->dp);
  // both aliases keep the artifact alive.
  return hw::mapped_core({md, &md->dp}, {md, &md->mapped});
}

// The software engines are the dsp lifting models.  DesignId is irrelevant
// to them (every paper design computes the same transform), and the
// fixed-point model runs at dsp::kDefaultFracBits, the precision of the
// gate-level cores.
constexpr ExecutionBackend kBackends[] = {
    {"software-float",
     "lifting scheme, floating-point coefficients (accuracy reference)",
     dsp::Method::kLiftingFloat},
    {"software-fixed",
     "lifting scheme, fixed-point coefficients (bit-exactness reference)",
     dsp::Method::kLiftingFixed},
    {"rtl-interpreted",
     "gate-level netlist on the scalar zero-delay simulator",
     interpreted_line_core},
    {"rtl-compiled",
     "gate-level netlist on the bit-parallel compiled-tape simulator",
     compiled_line_core},
    {"fpga-mapped",
     "APEX-mapped netlist on the transport-delay activity simulator",
     mapped_line_core},
};

}  // namespace

hw::Dwt2dSystem ExecutionBackend::make_2d_session(
    const BackendRequest& req) const {
  if (const MakeCore* make_core = std::get_if<MakeCore>(&engine_)) {
    return hw::Dwt2dSystem((*make_core)(req));
  }
  throw std::invalid_argument(std::string(name_) +
                              ": no 2-D session (netlist engines only)");
}

std::span<const ExecutionBackend> all_backends() { return kBackends; }

const ExecutionBackend* find_backend(std::string_view name) {
  for (const ExecutionBackend& b : all_backends()) {
    if (b.name() == name) return &b;
  }
  return nullptr;
}

std::string backend_names(std::string_view sep) {
  std::string out;
  for (const ExecutionBackend& b : all_backends()) {
    if (!out.empty()) out += sep;
    out += b.name();
  }
  return out;
}

}  // namespace dwt::core
