#include "explore/explorer.hpp"

#include "core/artifact_cache.hpp"
#include "dsp/image_gen.hpp"
#include "hw/stream_runner.hpp"

namespace dwt::explore {
namespace {

constexpr double kReferenceMhz = 15.0;  ///< Table 3 power reference
constexpr std::size_t kWorkloadSamples = 2048;
constexpr std::uint64_t kWorkloadSeed = 2005;

}  // namespace

std::vector<std::int64_t> Explorer::workload_stream() const {
  // Row-major scan of a 128-wide synthetic still-tone image.
  return dsp::still_tone_samples(kWorkloadSamples, 128, kWorkloadSeed);
}

DesignEvaluation Explorer::evaluate(const hw::DesignSpec& spec) const {
  DesignEvaluation eval;
  eval.spec = spec;

  // Elaborate + simplify + APEX-map through the shared artifact cache (one
  // build per design per process).  eval.netlist aliases the cached artifact
  // and keeps it alive: eval.mapped is a copy of the cached mapping whose
  // `source` pointer targets that very netlist, so an evaluation stays
  // self-contained as long as its netlist pointer is held.
  const std::shared_ptr<const core::MappedDesign> md =
      core::ArtifactCache::instance().mapped(spec.config);
  const hw::BuiltDatapath& dp = md->dp;
  eval.info = dp.info;
  eval.netlist = std::shared_ptr<const rtl::Netlist>(md, &md->dp.netlist);
  eval.netlist_stats = rtl::compute_stats(dp.netlist);
  eval.mapped = md->mapped;

  const fpga::ApexDeviceParams device = fpga::ApexDeviceParams::apex20ke();
  fpga::TimingAnalyzer sta(eval.mapped, device);
  eval.timing = sta.analyze();

  // Switching activity: stream the workload through the mapped-netlist
  // transport-delay model (LUT outputs filter cone-internal glitches the way
  // a real LE does).
  {
    fpga::MappedActivitySim sim(eval.mapped);
    const std::vector<std::int64_t> samples = workload_stream();
    (void)hw::run_stream_mapped(dp, sim, samples);
    eval.activity = sim.stats();
  }

  const fpga::PowerBreakdown pb = fpga::estimate_power(
      eval.mapped, eval.activity, device, kReferenceMhz);

  fpga::SynthesisReport& r = eval.report;
  r.name = spec.name;
  r.logic_elements = eval.mapped.le_count();
  r.fmax_mhz = eval.timing.fmax_mhz;
  r.power_mw = pb.total_mw();
  r.reference_mhz = kReferenceMhz;
  // The paper counts pipeline stages as the input-to-output latency.
  r.pipeline_stages = eval.info.latency;
  r.chain_les = eval.mapped.chain_le_count();
  r.lut_les = eval.mapped.lut_le_count();
  r.ff_count = eval.mapped.ff_count();
  r.critical_path_ns = eval.timing.critical_path_ns;
  r.mean_activity = fpga::mean_activity(eval.mapped, eval.activity);
  r.power_breakdown = pb;
  return eval;
}

std::vector<DesignEvaluation> Explorer::evaluate_all() const {
  std::vector<DesignEvaluation> out;
  for (const hw::DesignSpec& spec : hw::all_designs()) {
    out.push_back(evaluate(spec));
  }
  return out;
}

std::vector<DesignEvaluation> Explorer::evaluate_adder_variants() const {
  std::vector<DesignEvaluation> out;
  for (const hw::DesignSpec& spec : hw::adder_variant_designs()) {
    out.push_back(evaluate(spec));
  }
  return out;
}

fpga::PowerBreakdown DesignEvaluation::power_at(
    double f_mhz, const fpga::ApexDeviceParams& device) const {
  return fpga::estimate_power(mapped, activity, device, f_mhz);
}

}  // namespace dwt::explore
