// Fault-campaign scale-out: what golden-trace replay and trial sharding buy
// on top of the bit-parallel batch simulator.
//
// Three record groups:
//
//  1. Static cone statistics for all five Table 3 designs -- tape length,
//     mean fan-out-cone interval fraction, and the instruction reduction an
//     ideal cone-restricted run of a fixed 512-trial schedule would achieve
//     (a model of the schedule: every batch settles the whole tape).
//     These are deterministic functions of the netlist + seed (computed from
//     the ConeIndex, never from wall clock), so bench_compare pins them
//     exactly against the committed baseline.
//
//  2. Measured trials/s on Design 1 (o1 tape, 256 lanes, single worker
//     thread so the ratio isolates the algorithm, not the pool): batches
//     simulating every cycle vs batches replaying the golden trace over the
//     identical schedule, for two workloads.  The transient campaign (SEU +
//     glitch, the canonical radiation-test workload) is where replay earns
//     its keep: a batch skips the cycles before its first strike, every
//     trial's disturbance drains within the pipeline latency, and the batch
//     reconverges onto the golden trace and retires, so the rest of the
//     stream is served from the trace.  The mixed campaign adds stuck-at
//     faults, whose forces persist and keep their batches simulating until
//     the trace holds every stuck net at its forced value, so its ratio is
//     structurally smaller.  Acceptance gates: >= 2x on the transient
//     campaign in smoke mode, and replay/full reports byte identical for
//     both workloads (replay is purely a throughput knob).
//
//  3. Shard scaling on the same workload: the schedule split across 4
//     shards, each run separately; the projected parallel speedup is the
//     unsharded wall clock over the slowest shard.  The merged shard
//     reports must reproduce the unsharded report byte for byte.
//
// `--smoke` runs the fast pass and enforces the gates; `--json <path>`
// emits the bench/schema.md record set (identical record keys in smoke and
// full modes, so baselines diff cleanly).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/artifact_cache.hpp"
#include "explore/campaign_io.hpp"
#include "explore/resilience.hpp"
#include "hw/designs.hpp"
#include "rtl/fault.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

dwt::explore::ResilienceOptions base_options(dwt::hw::DesignId design,
                                             std::size_t trials,
                                             std::size_t samples,
                                             bool transient_only) {
  dwt::explore::ResilienceOptions opt;
  opt.design = design;
  if (transient_only) {
    opt.kinds = {dwt::rtl::FaultKind::kSeuFlip, dwt::rtl::FaultKind::kGlitch};
  } else {
    opt.kinds = {dwt::rtl::FaultKind::kSeuFlip, dwt::rtl::FaultKind::kGlitch,
                 dwt::rtl::FaultKind::kStuckAt0,
                 dwt::rtl::FaultKind::kStuckAt1};
  }
  opt.trials = trials;
  opt.samples = samples;
  opt.seed = 2005;
  opt.keep_trials = false;
  opt.threads = 1;  // isolate the algorithm, not the thread pool
  return opt;
}

/// Runs one campaign and returns its wall clock; the JSON report goes to
/// *report so byte-equality gates can compare engine variants.
double timed_campaign(const dwt::explore::ResilienceOptions& opt,
                      std::string* report) {
  const auto t0 = Clock::now();
  const dwt::explore::CampaignResult r = dwt::explore::run_campaign(opt);
  const double dt = seconds_since(t0);
  if (report != nullptr) *report = dwt::explore::to_json(r);
  return dt;
}

}  // namespace

int main(int argc, char** argv) {
  dwt::bench::JsonReporter json("bench_campaign_scaling", argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  // Fixed-size schedule for the deterministic cone statistics: the values
  // must not depend on smoke vs full mode or the baseline would never diff
  // cleanly.
  constexpr std::size_t kStatTrials = 512;
  constexpr std::size_t kStatSamples = 32;
  // Timed workload.  Even smoke mode needs a few thousand trials: at ~10^5
  // trials/s a 256-trial campaign is a millisecond -- pure timer noise.
  // The sample count is deliberately deep (256 input pairs per trial):
  // replay's retirement and cycle skipping amortize over the stream length,
  // and short streams are all pipeline-drain edge, which is exactly what a
  // real campaign is not.
  const std::size_t trials = smoke ? 8192 : 16384;
  const std::size_t samples = 256;
  constexpr unsigned kShards = 4;

  std::printf(
      "Fault-campaign scale-out: golden-trace replay and trial sharding on\n"
      "the compiled batch engine%s.\n\n",
      smoke ? " (smoke)" : "");

  bool all_ok = true;

  // --- 1. static cone statistics, all designs -----------------------------
  std::printf("%-10s %8s %12s %14s %12s\n", "design", "instrs", "mean cone",
              "schedule cone", "ideal skip");
  for (const dwt::hw::DesignSpec& spec : dwt::hw::all_designs()) {
    dwt::explore::ResilienceOptions opt =
        base_options(spec.id, kStatTrials, kStatSamples, /*transient_only=*/
                     false);
    const dwt::explore::CampaignResult r = dwt::explore::run_campaign(opt);
    const double reduction =
        r.cone.instructions_full == 0
            ? 0.0
            : 1.0 - static_cast<double>(r.cone.instructions_cone) /
                        static_cast<double>(r.cone.instructions_full);
    json.add(spec.name, "cone_instructions",
             static_cast<double>(r.cone.instructions), "count");
    json.add(spec.name, "cone_mean_span_fraction", r.cone.mean_span_fraction,
             "ratio");
    json.add(spec.name, "cone_schedule_mean_fraction",
             r.cone.schedule_mean_cone_fraction, "ratio");
    json.add(spec.name, "cone_instruction_reduction", reduction, "ratio");
    std::printf("%-10s %8zu %11.1f%% %13.1f%% %11.1f%%\n", spec.name.c_str(),
                r.cone.instructions, 100.0 * r.cone.mean_span_fraction,
                100.0 * r.cone.schedule_mean_cone_fraction, 100.0 * reduction);
  }

  // Pre-warm every shared artifact so no tape/cone build lands in a timed
  // window (the cache is process-wide, so the stat runs above already built
  // most of it; the mapped design is the one straggler).
  {
    const dwt::hw::DesignSpec spec =
        dwt::hw::design_spec(dwt::hw::DesignId::kDesign1);
    (void)dwt::core::ArtifactCache::instance().mapped(spec.config);
  }

  // --- 2. replay vs every-cycle throughput, Design 1 -----------------------
  // Best-of-3 per engine: campaigns share the host with whatever else is
  // running, and one descheduled slice would otherwise decide the ratio.
  double t_cone = 1e300;       // transient workload, reused by the shard group
  std::string report_cone;     // ditto
  struct TimedWorkload {
    bool transient_only;
    const char* label;
    const char* key_suffix;
  };
  constexpr TimedWorkload kWorkloads[] = {
      {true, "transient (seu+glitch)", "_l256"},
      {false, "mixed (all kinds)", "_mixed_l256"},
  };
  for (const TimedWorkload& w : kWorkloads) {
    double t_full_w = 1e300;
    double t_cone_w = 1e300;
    std::string report_full_w;
    std::string report_cone_w;
    for (int rep = 0; rep < 3; ++rep) {
      dwt::explore::ResilienceOptions opt = base_options(
          dwt::hw::DesignId::kDesign1, trials, samples, w.transient_only);
      opt.cone = false;
      t_full_w = std::min(t_full_w, timed_campaign(opt, &report_full_w));
      opt.cone = true;
      t_cone_w = std::min(t_cone_w, timed_campaign(opt, &report_cone_w));
    }
    const double tps_full = static_cast<double>(trials) / t_full_w;
    const double tps_cone = static_cast<double>(trials) / t_cone_w;
    const double speedup = tps_cone / tps_full;
    json.add("Design 1",
             std::string("campaign_throughput_full") + w.key_suffix, tps_full,
             "trials/s");
    json.add("Design 1",
             std::string("campaign_throughput_cone") + w.key_suffix, tps_cone,
             "trials/s");
    json.add("Design 1",
             w.transient_only ? "cone_speedup" : "cone_speedup_mixed", speedup,
             "ratio");
    std::printf(
        "\nDesign 1, o1 tape, 256 lanes, %zu trials, %s:\n"
        "  every cycle  %10.0f trials/s\n"
        "  replay       %10.0f trials/s   %.2fx\n",
        trials, w.label, tps_full, tps_cone, speedup);
    if (report_full_w != report_cone_w) {
      all_ok = false;
      std::printf("replay/full reports DIFFER: replay must be a pure "
                  "throughput knob\n");
    }
    if (w.transient_only) {
      if (smoke && speedup < 2.0) {
        all_ok = false;
        std::printf("replay below the 2x acceptance gate: %.2fx\n", speedup);
      }
      t_cone = t_cone_w;
      report_cone = std::move(report_cone_w);
    }
  }

  // --- 3. shard scaling, Design 1 -----------------------------------------
  double t_shard_max = 0.0;
  double t_shard_sum = 0.0;
  std::vector<std::string> shard_reports;
  for (unsigned s = 0; s < kShards; ++s) {
    dwt::explore::ResilienceOptions opt = base_options(
        dwt::hw::DesignId::kDesign1, trials, samples, /*transient_only=*/true);
    opt.shard_count = kShards;
    opt.shard_index = s;
    std::string report;
    const double dt = timed_campaign(opt, &report);
    t_shard_max = std::max(t_shard_max, dt);
    t_shard_sum += dt;
    shard_reports.push_back(std::move(report));
  }
  const double shard_speedup = t_cone / t_shard_max;
  // t_cone / sum(shards) ~ 1.0 when sharding adds no redundant work; named
  // with the -speedup suffix so bench_compare treats it as wall clock.
  json.add("Design 1", "shard_speedup_s4", shard_speedup, "ratio");
  json.add("Design 1", "shard_serial_speedup_s4", t_shard_sum > 0.0
                                                      ? t_cone / t_shard_sum
                                                      : 0.0, "ratio");
  std::printf(
      "  %u shards   slowest %.3fs vs unsharded %.3fs: projected parallel "
      "speedup %.2fx\n",
      kShards, t_shard_max, t_cone, shard_speedup);
  try {
    const std::string merged = dwt::explore::merge_reports(shard_reports);
    if (merged != report_cone) {
      all_ok = false;
      std::printf("merged shard reports DIFFER from the unsharded report\n");
    }
  } catch (const std::exception& e) {
    all_ok = false;
    std::printf("shard merge FAILED: %s\n", e.what());
  }

  std::printf(
      "\nCone statistics are deterministic (netlist + seed); trials/s and\n"
      "speedups are host wall clock.  Byte-equality of replay/full and\n"
      "merged/unsharded reports is enforced in every mode.\n");
  if (!all_ok) {
    std::fprintf(stderr, "campaign-scaling gate FAILED\n");
    return 1;
  }
  return json.exit_code();
}
