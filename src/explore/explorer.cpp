#include "explore/explorer.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "core/artifact_cache.hpp"
#include "dsp/image_gen.hpp"
#include "hw/stream_runner.hpp"

namespace dwt::explore {

Explorer::Explorer(ExplorerOptions options) : options_(std::move(options)) {
  if (options_.reference_mhz <= 0 || options_.workload_samples < 64 ||
      options_.workload_samples % 2 != 0) {
    throw std::invalid_argument("Explorer: bad options");
  }
}

std::vector<std::int64_t> Explorer::workload_stream() const {
  if (options_.workload == Workload::kStillToneImage) {
    // Row-major scan of a 128-wide synthetic still-tone image.
    return dsp::still_tone_samples(options_.workload_samples, 128,
                                   options_.seed);
  }
  std::vector<std::int64_t> samples;
  samples.reserve(options_.workload_samples);
  common::Rng rng(options_.seed);
  for (std::size_t i = 0; i < options_.workload_samples; ++i) {
    samples.push_back(rng.uniform(-128, 127));
  }
  return samples;
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

  fpga::TimingAnalyzer sta(eval.mapped, options_.device);
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
      eval.mapped, eval.activity, options_.device, options_.reference_mhz);

  fpga::SynthesisReport& r = eval.report;
  r.name = spec.name;
  r.logic_elements = eval.mapped.le_count();
  r.fmax_mhz = eval.timing.fmax_mhz;
  r.power_mw = pb.total_mw();
  r.reference_mhz = options_.reference_mhz;
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
