// Gate-level simulation throughput: interpreted rtl::Simulator vs the
// compiled bit-parallel engine (rtl/compiled), across the full tape
// optimization x lane-width matrix, in stimulus vectors per second on all
// five Table 3 designs.  One "vector" is one clock cycle of fresh
// randomized primary inputs; a compiled tape pass advances 64*W vectors
// (W = 1 or 4 state words per slot).
//
// Besides the throughput matrix the bench reports the optimizer's
// per-level instruction counts and reductions, the execution-tier matrix
// (switch interpreter vs native x86-64 block over a precomputed stimulus
// ring, per level and lane width), and the fault-campaign throughput of
// the campaign engine (256 lanes on the overlay-safe tape) on the smoke
// workload.
//
// `--smoke` runs a fast pass and enforces the CI gates: every optimization
// level must stay differentially equivalent to the interpreted engine, the
// optimized tape must not be slower than the raw one, and (on hosts where
// the emitter runs) the native tier must clear 3x the switch interpreter
// at o2/256 lanes.  `--json <path>` emits the bench/schema.md record set
// (identical record keys in smoke and full modes, so baselines diff
// cleanly).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "core/artifact_cache.hpp"
#include "explore/resilience.hpp"
#include "hw/designs.hpp"
#include "rtl/compiled/equivalence.hpp"
#include "rtl/compiled/exec_tier.hpp"
#include "rtl/compiled/native_block.hpp"
#include "rtl/compiled/tape.hpp"
#include "rtl/compiled/wide_simulator.hpp"
#include "rtl/simulator.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using dwt::rtl::compiled::OptLevel;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// One cycle of interpreted simulation with fresh random inputs; returns a
// checksum so the work cannot be optimized away.
std::int64_t interpreted_vectors_per_sec(const dwt::hw::BuiltDatapath& dp,
                                         std::uint64_t cycles,
                                         std::uint64_t seed, double* vps) {
  dwt::rtl::Simulator sim(dp.netlist);
  dwt::common::Rng rng(seed);
  std::int64_t checksum = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t c = 0; c < cycles; ++c) {
    sim.set_bus(dp.in_even, rng.uniform(-128, 127));
    sim.set_bus(dp.in_odd, rng.uniform(-128, 127));
    sim.step();
    checksum += sim.read_bus(dp.out_low) ^ sim.read_bus(dp.out_high);
  }
  *vps = static_cast<double>(cycles) / seconds_since(t0);
  return checksum;
}

// Same workload on the wide compiled engine: 64*W independent vector
// streams per pass, each lane drawing its own stimulus.
template <unsigned W>
std::int64_t wide_vectors_per_sec(
    const std::shared_ptr<const dwt::rtl::compiled::Tape>& tape,
    const dwt::hw::BuiltDatapath& dp, std::uint64_t cycles,
    std::uint64_t seed, double* vps) {
  using Sim = dwt::rtl::compiled::WideSimulator<W>;
  Sim sim(tape);
  dwt::common::Rng rng(seed);
  std::int64_t checksum = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t c = 0; c < cycles; ++c) {
    for (unsigned lane = 0; lane < Sim::kTotalLanes; ++lane) {
      sim.set_bus(dp.in_even, lane, rng.uniform(-128, 127));
      sim.set_bus(dp.in_odd, lane, rng.uniform(-128, 127));
    }
    sim.step();
    checksum += sim.read_bus(dp.out_low, 0) ^
                sim.read_bus(dp.out_high, Sim::kTotalLanes - 1);
  }
  *vps = static_cast<double>(cycles * Sim::kTotalLanes) / seconds_since(t0);
  return checksum;
}

// Execution-tier probe: same tape, same stimulus, different tape walker
// (the interpreter when `native` is null).  Stimulus comes from a
// precomputed ring of input frames so the timed loop is set_input_block +
// step() -- per-lane random generation costs more than an optimized tape
// pass and would otherwise time the RNG, hiding the tier difference the
// record exists to measure.
template <unsigned W>
std::int64_t tier_vectors_per_sec(
    const std::shared_ptr<const dwt::rtl::compiled::Tape>& tape,
    const dwt::hw::BuiltDatapath& dp,
    std::shared_ptr<const dwt::rtl::compiled::NativeBlock> native,
    std::uint64_t cycles, std::uint64_t seed, double* vps) {
  using Sim = dwt::rtl::compiled::WideSimulator<W>;
  using Block = dwt::rtl::compiled::LaneBlock<W>;
  Sim sim(tape);
  sim.set_native(std::move(native));
  const std::vector<dwt::rtl::NetId>& pis = dp.netlist.primary_inputs();
  constexpr std::size_t kRing = 16;
  std::vector<std::vector<Block>> ring(kRing);
  dwt::common::Rng rng(seed);
  for (auto& frame : ring) {
    frame.resize(pis.size());
    for (Block& b : frame) {
      for (unsigned k = 0; k < W; ++k) b.w[k] = rng.next_u64();
    }
  }
  std::int64_t checksum = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t c = 0; c < cycles; ++c) {
    const std::vector<Block>& frame = ring[c % kRing];
    for (std::size_t i = 0; i < pis.size(); ++i) {
      sim.set_input_block(pis[i], frame[i]);
    }
    sim.step();
    checksum += sim.read_bus(dp.out_low, 0) ^
                sim.read_bus(dp.out_high, Sim::kTotalLanes - 1);
  }
  *vps = static_cast<double>(cycles * Sim::kTotalLanes) / seconds_since(t0);
  return checksum;
}

// Thread-pool shard: each worker owns a simulator over the shared tape and
// runs an independent stream; aggregate vectors/s is measured over the
// slowest worker (wall clock of the join).
void threaded_vectors_per_sec(
    const std::shared_ptr<const dwt::rtl::compiled::Tape>& tape,
    const dwt::hw::BuiltDatapath& dp, std::uint64_t cycles,
    std::uint64_t seed, unsigned threads, double* vps) {
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      double ignored = 0.0;
      wide_vectors_per_sec<4>(tape, dp, cycles, seed + t, &ignored);
    });
  }
  for (auto& th : pool) th.join();
  *vps = static_cast<double>(cycles * 256 * threads) / seconds_since(t0);
}

/// Trials/s of one compiled fault campaign (all shared artifacts are
/// pre-built by the caller, so this times the batched simulation itself).
double campaign_trials_per_sec(std::size_t trials, std::size_t samples) {
  dwt::explore::ResilienceOptions opt;
  opt.design = dwt::hw::DesignId::kDesign3;
  opt.kinds = {dwt::rtl::FaultKind::kSeuFlip, dwt::rtl::FaultKind::kStuckAt0};
  opt.trials = trials;
  opt.samples = samples;
  opt.seed = 42;
  opt.keep_trials = false;
  opt.threads = 1;  // time the lane packing, not the thread pool
  const auto t0 = Clock::now();
  const dwt::explore::CampaignResult r = dwt::explore::run_campaign(opt);
  const double dt = seconds_since(t0);
  return static_cast<double>(r.trials_run) / dt;
}

const char* level_tag(OptLevel level) {
  switch (level) {
    case OptLevel::kNone: return "o0";
    case OptLevel::kSafe: return "o1";
    case OptLevel::kFull: return "o2";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  dwt::bench::JsonReporter json("bench_compiled_sim_throughput", argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::uint64_t interp_cycles = smoke ? 64 : 4096;
  const std::uint64_t compiled_cycles = smoke ? 48 : 1024;
  const std::uint64_t tier_cycles = smoke ? 256 : 2048;
  const std::uint64_t equiv_cycles = smoke ? 24 : 48;
  // Even smoke mode needs a few thousand trials: at ~10^5 trials/s a
  // 256-trial campaign is a millisecond -- pure timer noise.
  const std::size_t campaign_trials = smoke ? 4096 : 16384;
  const std::size_t campaign_samples = smoke ? 32 : 64;
  unsigned threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;

  constexpr OptLevel kLevels[] = {OptLevel::kNone, OptLevel::kSafe,
                                  OptLevel::kFull};

  std::printf(
      "Gate-level simulation throughput: interpreted vs compiled engine\n"
      "across tape optimization levels and lane widths%s.\n\n",
      smoke ? " (smoke)" : "");

  bool all_ok = true;
  bool perf_ok = true;
  double native_speedup_logsum = 0.0;  // per-design o2/l256 native-vs-switch
  dwt::core::ArtifactCache& cache = dwt::core::ArtifactCache::instance();
  for (const dwt::hw::DesignSpec& spec : dwt::hw::all_designs()) {
    const dwt::hw::BuiltDatapath& dp = cache.design(spec.config)->dp;

    // Differential gate: every optimization level must match the
    // interpreted engine before its throughput means anything.
    for (const OptLevel level : kLevels) {
      const auto report = dwt::rtl::compiled::check_equivalence(
          dp.netlist, equiv_cycles, /*seed=*/2005, /*lanes_to_check=*/2,
          level);
      if (!report.ok) {
        all_ok = false;
        std::printf("%-10s %s MISMATCH: %s\n", spec.name.c_str(),
                    level_tag(level), report.mismatch.c_str());
      }
    }
    if (!all_ok) continue;

    double interp_vps = 0.0;
    interpreted_vectors_per_sec(dp, interp_cycles, /*seed=*/7, &interp_vps);
    json.add(spec.name, "interpreted_throughput", interp_vps, "vectors/s");

    const std::size_t raw_instrs =
        cache.tape(spec.config)->instrs().size();
    double vps_o0_l64 = 0.0;
    double vps_max = 0.0;
    double vps_opt_l64 = 0.0;  // max-opt tape at the seed 64-lane width
    std::printf("%-10s  interp %10.0f vec/s   (%zu raw instrs)\n",
                spec.name.c_str(), interp_vps, raw_instrs);
    for (const OptLevel level : kLevels) {
      const auto tape =
          cache.tape(spec.config, dwt::rtl::HardeningStyle::kNone, level);
      const std::string tag = level_tag(level);
      const std::size_t instrs = tape->instrs().size();
      json.add(spec.name, "tape_instructions_" + tag,
               static_cast<double>(instrs), "count");
      if (level != OptLevel::kNone) {
        json.add(spec.name, "instr_reduction_" + tag,
                 1.0 - static_cast<double>(instrs) /
                           static_cast<double>(raw_instrs),
                 "ratio");
      }
      for (const unsigned width : {1u, 4u}) {
        double vps = 0.0;
        if (width == 1) {
          wide_vectors_per_sec<1>(tape, dp, compiled_cycles, 7, &vps);
        } else {
          wide_vectors_per_sec<4>(tape, dp, compiled_cycles, 7, &vps);
        }
        const unsigned lanes = 64 * width;
        json.add(spec.name,
                 "compiled_throughput_" + tag + "_l" + std::to_string(lanes),
                 vps, "vectors/s");
        std::printf("  %s l%-3u  %10.0f vec/s  %5zu instrs  %6.1fx interp\n",
                    tag.c_str(), lanes, vps, instrs, vps / interp_vps);
        if (level == OptLevel::kNone && width == 1) vps_o0_l64 = vps;
        if (level == OptLevel::kFull && width == 1) vps_opt_l64 = vps;
        if (vps > vps_max) vps_max = vps;
      }
    }
    json.add(spec.name, "compiled_speedup", vps_max / interp_vps, "ratio");

    // Execution-tier matrix: the same tape walked by the switch
    // interpreter and the native x86-64 block, per (level, width), over the
    // stimulus-ring harness.  On hosts without the emitter the native point
    // demotes to the interpreter (the production fallback) and the records
    // document that.
    using dwt::rtl::compiled::ExecTier;
    constexpr ExecTier kTiers[] = {ExecTier::kSwitch, ExecTier::kNative};
    double gate_switch = 0.0;  // o2/l256 switch interpreter, best of reps
    double gate_native = 0.0;  // o2/l256 native tier, best of reps
    for (const OptLevel level : kLevels) {
      const auto tape =
          cache.tape(spec.config, dwt::rtl::HardeningStyle::kNone, level);
      const std::string tag = level_tag(level);
      for (const unsigned width : {1u, 4u}) {
        for (const ExecTier tier : kTiers) {
          // The o2/l256 gate points get best-of-3: one descheduled slice
          // must not decide a 3x acceptance ratio.
          const bool gate_point = level == OptLevel::kFull && width == 4;
          const auto native = cache.native_for(
              tier, spec.config, dwt::rtl::HardeningStyle::kNone, level, width);
          double best = 0.0;
          for (int rep = 0; rep < (gate_point ? 3 : 1); ++rep) {
            double vps = 0.0;
            if (width == 1) {
              tier_vectors_per_sec<1>(tape, dp, native, tier_cycles, 7, &vps);
            } else {
              tier_vectors_per_sec<4>(tape, dp, native, tier_cycles, 7, &vps);
            }
            best = std::max(best, vps);
          }
          const unsigned lanes = 64 * width;
          json.add(spec.name,
                   "exec_" + std::string(to_string(tier)) + "_" + tag + "_l" +
                       std::to_string(lanes),
                   best, "vectors/s");
          std::printf("  %s %-11s l%-3u  %12.0f vec/s\n", tag.c_str(),
                      to_string(tier), lanes, best);
          if (gate_point && tier == ExecTier::kSwitch) gate_switch = best;
          if (gate_point && tier == ExecTier::kNative) gate_native = best;
        }
      }
    }
    json.add(spec.name, "native_speedup_o2_l256", gate_native / gate_switch,
             "ratio");
    native_speedup_logsum += std::log(gate_native / gate_switch);
    const auto native_block = cache.native_block(
        spec.config, dwt::rtl::HardeningStyle::kNone, OptLevel::kFull, 4);
    json.add(spec.name, "native_code_bytes",
             native_block ? static_cast<double>(native_block->code_size())
                          : 0.0,
             "count");

    double threaded_vps = 0.0;
    threaded_vectors_per_sec(
        cache.tape(spec.config, dwt::rtl::HardeningStyle::kNone,
                   OptLevel::kFull),
        dp, compiled_cycles, /*seed=*/7, threads, &threaded_vps);
    json.add(spec.name, "threaded_throughput", threaded_vps, "vectors/s");

    // CI gate (smoke): with half to a quarter of the instructions, the
    // optimized tape must not run slower than the raw one at equal width.
    if (smoke && vps_opt_l64 < 0.95 * vps_o0_l64) {
      all_ok = false;
      std::printf("%-10s optimized tape SLOWER: O2 %.0f vec/s < O0 %.0f\n",
                  spec.name.c_str(), vps_opt_l64, vps_o0_l64);
    }
  }

  // Fault-campaign throughput of the campaign engine (256 lanes on the
  // overlay-safe tape), artifacts pre-warmed so no tape build lands in the
  // timed window.
  {
    const dwt::hw::DesignSpec spec = dwt::hw::design_spec(
        dwt::hw::DesignId::kDesign3);
    (void)cache.mapped(spec.config);
    (void)cache.tape(spec.config, dwt::rtl::HardeningStyle::kNone,
                     OptLevel::kSafe);
    // Best of 3: campaigns share the host with whatever else is running,
    // and one descheduled slice would otherwise decide the figure.
    double tps = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      tps = std::max(tps, campaign_trials_per_sec(campaign_trials,
                                                  campaign_samples));
    }
    json.add("Design 3", "campaign_throughput_l256", tps, "trials/s");
    std::printf(
        "\nFault campaign (Design 3): %.0f trials/s (256 lanes, o1 tape)\n",
        tps);
  }

  // ISSUE acceptance gate: across the five-design matrix the native tier
  // must clear 3x the switch interpreter at o2/256 lanes, measured as the
  // geometric mean of the per-design ratios (the deeply pipelined Design 3
  // is edge-copy-dominated and individually sits below its peers; every
  // per-design ratio is still a published record).  Skipped when
  // DWT_EXEC_TIER forces the interpreter -- the records then measure the
  // forced tier -- or the host has no emitter.
  const double native_speedup_geomean =
      std::exp(native_speedup_logsum / 5.0);
  json.add("all designs", "native_speedup_geomean_o2_l256",
           native_speedup_geomean, "ratio");
  const bool native_live =
      dwt::rtl::compiled::resolve_exec_tier(
          dwt::rtl::compiled::ExecTier::kNative, 4) ==
      dwt::rtl::compiled::ExecTier::kNative;
  std::printf("\nNative tier o2/l256 speedup over the switch interpreter: "
              "%.2fx geomean%s\n",
              native_speedup_geomean,
              native_live ? "" : " (native demoted: interpreter forced)");
  if (smoke && native_live && native_speedup_geomean < 3.0) {
    perf_ok = false;
    std::printf("native tier BELOW 3x geomean across the design matrix\n");
  }

  std::printf(
      "\nOne compiled tape pass advances 64*W packed vectors; the optimizer\n"
      "shrinks the tape itself (constant folding, dead-slot elimination,\n"
      "full-adder fusion), so the two axes multiply.  Wall-clock numbers\n"
      "vary by host; instruction counts and reductions are deterministic.\n");
  // Flush the record file before gating: a failed smoke run should still
  // leave its measurements on disk for inspection.
  const int json_rc = json.exit_code();
  if (!all_ok || !perf_ok) {
    std::fprintf(stderr, "compiled-engine smoke gate FAILED\n");
    return 1;
  }
  return json_rc;
}
