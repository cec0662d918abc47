#include "explore/resilience.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "core/artifact_cache.hpp"
#include "dsp/image_gen.hpp"
#include "explore/campaign_io.hpp"
#include "fpga/device.hpp"
#include "fpga/timing.hpp"
#include "hw/stream_runner.hpp"
#include "rtl/compiled/batch_fault.hpp"
#include "rtl/compiled/cone_index.hpp"
#include "rtl/simulator.hpp"

namespace dwt::explore {
namespace {

/// Default trials per execution chunk (summary fold + checkpoint cadence).
/// Larger chunks let the cycle-sorted batching (run_compiled_chunk) pack
/// each 256-lane batch into a tighter strike-cycle window, which shortens
/// the cycles a replaying batch must simulate; 16k trials is still only a
/// few MB of chunk-local records.
constexpr std::size_t kDefaultChunk = 16384;
/// Above this many trials in a shard the per-trial list is auto-disabled so
/// million-trial campaigns run in constant memory.
constexpr std::size_t kKeepTrialsLimit = 1'000'000;
/// In-memory budget for the golden trace; past it batches simulate every
/// cycle instead of replaying it (results are identical either way).
constexpr std::uint64_t kTraceBytesLimit = std::uint64_t{1} << 26;  // 64 MiB

/// Area/f_max of a cached APEX mapping through STA.  The mapping itself
/// (simplify + map_to_apex, the expensive part) comes from the artifact
/// cache; only the cheap timing analysis runs per call.
SynthesisCost synthesize(const fpga::MappedNetlist& mapped) {
  const fpga::ApexDeviceParams device = fpga::ApexDeviceParams::apex20ke();
  fpga::TimingAnalyzer sta(mapped, device);
  const fpga::TimingReport timing = sta.analyze();
  SynthesisCost cost;
  cost.logic_elements = mapped.le_count();
  cost.ff_count = mapped.ff_count();
  cost.fmax_mhz = timing.fmax_mhz;
  return cost;
}

/// Outcome/PSNR classification of one trial -- shared by both engines so a
/// trial's record depends only on its coefficient stream and watch flag.
/// One pass over each band, at that band's length, yields the PSNR over the
/// concatenated low/high bands (the double operations of dsp::psnr, in its
/// order) and the largest absolute coefficient error; the stream is
/// corrupted iff that error is nonzero.  The net's name is filled in only
/// for trials the run keeps.
FaultTrial classify_trial(const rtl::Fault& fault, const hw::StreamResult& got,
                          const hw::StreamResult& golden, bool watch_hit) {
  double sse = 0.0;
  std::int64_t worst = 0;
  const auto band = [&](const std::vector<std::int64_t>& x,
                        const std::vector<std::int64_t>& gold) {
    for (std::size_t i = 0; i < gold.size(); ++i) {
      const double e =
          static_cast<double>(gold[i]) - static_cast<double>(x[i]);
      sse += e * e;
      worst = std::max(worst, std::abs(x[i] - gold[i]));
    }
  };
  band(got.low, golden.low);
  band(got.high, golden.high);
  const double mse =
      sse / static_cast<double>(golden.low.size() + golden.high.size());

  FaultTrial trial;
  trial.fault = fault;
  if (watch_hit) {
    trial.outcome = FaultOutcome::kDetected;
  } else if (worst != 0) {
    trial.outcome = FaultOutcome::kSilentCorruption;
  } else {
    trial.outcome = FaultOutcome::kMasked;
  }
  trial.psnr_db = mse == 0.0 ? std::numeric_limits<double>::infinity()
                             : 10.0 * std::log10(255.0 * 255.0 / mse);
  trial.max_abs_error = worst;
  return trial;
}

/// Balanced contiguous partition of `total` trials into `count` shards:
/// shard i executes [begin, end).  The first (total % count) shards carry
/// one extra trial, so the slices partition the schedule exactly.
std::pair<std::size_t, std::size_t> shard_range(std::size_t total,
                                                unsigned count,
                                                unsigned index) {
  const std::size_t q = total / count;
  const std::size_t r = total % count;
  const std::size_t begin =
      static_cast<std::size_t>(index) * q + std::min<std::size_t>(index, r);
  return {begin, begin + q + (index < r ? 1 : 0)};
}

}  // namespace

std::optional<CampaignEngine> engine_from_backend(std::string_view name) {
  if (name == "rtl-interpreted") return CampaignEngine::kInterpreted;
  if (name == "rtl-compiled") return CampaignEngine::kCompiled;
  return std::nullopt;
}

void CampaignSummary::add(const FaultTrial& trial) {
  ++trials_run;
  switch (trial.outcome) {
    case FaultOutcome::kMasked: ++masked; break;
    case FaultOutcome::kDetected: ++detected; break;
    case FaultOutcome::kSilentCorruption: ++sdc; break;
  }
  if (trial.max_abs_error != 0) {
    ++corrupted;
    psnr_acc.add(trial.psnr_db);
    min_psnr_db = std::min(min_psnr_db, trial.psnr_db);
  }
}

void CampaignSummary::add(const CampaignSummary& other) {
  trials_run += other.trials_run;
  masked += other.masked;
  detected += other.detected;
  sdc += other.sdc;
  corrupted += other.corrupted;
  min_psnr_db = std::min(min_psnr_db, other.min_psnr_db);
  psnr_acc.add(other.psnr_acc);
}

const char* to_string(FaultOutcome o) {
  switch (o) {
    case FaultOutcome::kMasked: return "masked";
    case FaultOutcome::kDetected: return "detected";
    case FaultOutcome::kSilentCorruption: return "sdc";
  }
  return "?";
}

CampaignResult run_campaign(const ResilienceOptions& options) {
  if (options.trials == 0) {
    throw std::invalid_argument("run_campaign: zero trials");
  }
  if (options.samples < 8 || options.samples % 2 != 0) {
    throw std::invalid_argument(
        "run_campaign: samples must be even and >= 8");
  }
  if (options.kinds.empty()) {
    throw std::invalid_argument("run_campaign: no fault kinds enabled");
  }
  if (options.shard_count == 0) {
    throw std::invalid_argument("run_campaign: zero shards");
  }
  if (options.shard_index >= options.shard_count) {
    throw std::invalid_argument("run_campaign: shard index out of range");
  }
  if (options.shard_count > options.trials) {
    throw std::invalid_argument("run_campaign: more shards than trials");
  }

  CampaignResult result;
  result.spec = hw::design_spec(options.design);
  if (options.adder.has_value()) {
    // The adder-variant design point: swap the realization and report under
    // the variant's name so Pareto rows never collide with the paper's.
    result.spec.config.adder_style = *options.adder;
    result.spec.name = hw::design_point_name(options.design, options.adder);
  }
  result.harden = options.harden;
  result.seed = options.seed;
  result.samples = options.samples;
  result.kinds = options.kinds;
  result.shard_count = options.shard_count;
  result.shard_index = options.shard_index;
  const auto [shard_begin, shard_end] =
      shard_range(options.trials, options.shard_count, options.shard_index);
  result.trial_begin = shard_begin;
  result.trial_end = shard_end;
  const std::size_t shard_trials = shard_end - shard_begin;

  bool keep = options.keep_trials;
  if (keep && shard_trials > kKeepTrialsLimit) {
    keep = false;
    std::fprintf(stderr,
                 "run_campaign: per-trial list disabled (%zu trials exceed "
                 "the %zu-trial in-memory limit); summary counters are "
                 "unaffected\n",
                 shard_trials, kKeepTrialsLimit);
  }

  // All expensive artifacts -- elaborated/hardened netlists, APEX mappings,
  // compiled tapes, cone indexes -- come from the shared cache, so repeated
  // campaigns over the same (design, hardening) pair build them once per
  // process.
  core::ArtifactCache& cache = core::ArtifactCache::instance();
  const std::shared_ptr<const core::CachedDesign> base_artifact =
      cache.design(result.spec.config);
  const std::shared_ptr<const core::CachedDesign> dut_artifact =
      cache.design(result.spec.config, options.harden);
  const hw::BuiltDatapath& built = base_artifact->dp;
  const hw::BuiltDatapath& dut = dut_artifact->dp;
  result.harden_report = dut_artifact->harden_report;
  result.baseline = synthesize(cache.mapped(result.spec.config)->mapped);
  result.hardened =
      options.harden == rtl::HardeningStyle::kNone
          ? result.baseline
          : synthesize(
                cache.mapped(result.spec.config, options.harden)->mapped);

  // Rows of a 64-wide still-tone image, matching the Explorer's workload.
  const std::vector<std::int64_t> stimulus =
      dsp::still_tone_samples(options.samples, 64, options.seed);
  const std::uint64_t total_cycles =
      hw::stream_cycle_count(dut, stimulus.size());

  const rtl::NetId flag_net =
      options.harden == rtl::HardeningStyle::kParity
          ? dut.netlist.output(rtl::kErrorFlagPort).bits.front()
          : rtl::kNullNet;
  const bool compiled = options.engine == CampaignEngine::kCompiled;
  // Fault overlays pin individual nets, so the compiled engine runs the
  // fault-overlay-safe tape (rtl/compiled/opt/passes.hpp); its cone index
  // models the schedule on both engines.
  constexpr rtl::compiled::OptLevel kLevel = rtl::compiled::OptLevel::kSafe;
  const std::shared_ptr<const rtl::compiled::Tape> tape =
      cache.tape(result.spec.config, options.harden, kLevel);

  // Golden-trace replay: compiled engine only, and only while the trace
  // fits the in-memory budget.  Purely a throughput knob -- a replaying
  // batch is bit-exact with one that simulates every cycle.
  bool replay = compiled && options.cone;
  if (replay &&
      rtl::compiled::GoldenTrace::bytes_needed(
          total_cycles, tape->slot_count()) > kTraceBytesLimit) {
    replay = false;
    std::fprintf(stderr,
                 "run_campaign: golden-trace replay off (the trace would "
                 "exceed the in-memory budget); every batch simulates "
                 "every cycle\n");
  }
  std::shared_ptr<rtl::compiled::GoldenTrace> trace;
  if (replay) trace = std::make_shared<rtl::compiled::GoldenTrace>(*tape);

  // Golden references: the unhardened design on the scalar reference
  // simulator defines correctness on both engines; the hardened one must
  // reproduce it fault-free on the campaign's engine (a transform bug fails
  // loudly here rather than skewing the campaign).
  const hw::StreamResult golden = [&] {
    rtl::Simulator sim(built.netlist);
    return hw::run_stream(built, sim, stimulus);
  }();
  // The compiled engine runs every batch, and the fault-free check, on one
  // session type sharing the cache's native block; the simulator runs it
  // for clock edges and for settles, forced lanes included.
  using BatchSession = rtl::compiled::WideBatchSession<4>;
  const std::shared_ptr<const rtl::compiled::NativeBlock> native =
      compiled ? cache.native_for(rtl::compiled::ExecTier::kAuto,
                                  result.spec.config, options.harden, kLevel,
                                  BatchSession::Sim::kWords)
               : nullptr;
  {
    hw::StreamResult check;
    bool flagged = false;
    if (compiled) {
      BatchSession clean(tape);
      clean.sim().set_native(native);
      if (flag_net != rtl::kNullNet) clean.watch(flag_net);
      // The fault-free pass doubles as the golden trace recording for the
      // replaying batches.
      if (replay) clean.set_trace(trace.get());
      check = std::move(hw::run_stream_batch(dut, clean, stimulus, 1).front());
      flagged = clean.watch_block().any();
    } else {
      rtl::Simulator sim(dut.netlist);
      rtl::FaultInjector clean(dut.netlist, sim);
      if (flag_net != rtl::kNullNet) clean.watch(flag_net);
      check = hw::run_stream_faulty(dut, clean, stimulus);
      flagged = clean.watch_triggered();
    }
    if (check.low != golden.low || check.high != golden.high) {
      throw std::logic_error(
          "run_campaign: hardened netlist diverges without faults");
    }
    if (flagged) {
      throw std::logic_error(
          "run_campaign: parity flag raised without faults");
    }
  }

  const std::vector<rtl::NetId> seu = rtl::seu_targets(dut.netlist);
  const std::vector<rtl::NetId> stuck = rtl::stuck_targets(dut.netlist);
  const std::vector<rtl::NetId> glitch = rtl::glitch_targets(dut.netlist);

  // The static cone statistics are computed over the same tape on either
  // engine, with replay on or off, so the JSON block is identical on every
  // setting and in every shard.
  const std::shared_ptr<const rtl::compiled::ConeIndex> cone =
      cache.cone_index(result.spec.config, options.harden, kLevel);
  result.cone.instructions = cone->instr_count();
  result.cone.mean_span_fraction = cone->mean_span_fraction();

  // Pre-draw the whole fault schedule -- every shard draws all of it.  The
  // rng stream is consumed in trial order exactly as the sequential runner
  // always did, so seeds reproduce identical campaigns on both engines, any
  // thread count, and any shard slicing; only this shard's slice is kept.
  common::Rng rng(options.seed);
  std::vector<rtl::Fault> faults(shard_trials);
  double cone_frac_sum = 0.0;
  for (std::size_t t = 0; t < options.trials; ++t) {
    rtl::Fault fault;
    fault.kind = options.kinds[static_cast<std::size_t>(rng.uniform(
        0, static_cast<std::int64_t>(options.kinds.size()) - 1))];
    const std::vector<rtl::NetId>* pool = nullptr;
    switch (fault.kind) {
      case rtl::FaultKind::kSeuFlip: pool = &seu; break;
      case rtl::FaultKind::kGlitch: pool = &glitch; break;
      case rtl::FaultKind::kStuckAt0:
      case rtl::FaultKind::kStuckAt1: pool = &stuck; break;
    }
    if (pool == nullptr || pool->empty()) {
      throw std::logic_error(std::string("run_campaign: no targets for ") +
                             rtl::to_string(fault.kind));
    }
    fault.net = (*pool)[static_cast<std::size_t>(rng.uniform(
        0, static_cast<std::int64_t>(pool->size()) - 1))];
    // Leave at least one settle cycle after injection so a detection flag
    // raised by the final-state upset is still observed.
    fault.cycle = static_cast<std::uint64_t>(
        rng.uniform(0, static_cast<std::int64_t>(total_cycles) - 2));
    fault.glitch_value = rng.uniform(0, 1) != 0;
    const rtl::compiled::ConeSpan span = cone->span_of_net(*tape, fault.net);
    cone_frac_sum += result.cone.instructions > 0
                         ? static_cast<double>(span.length()) /
                               static_cast<double>(result.cone.instructions)
                         : 0.0;
    result.cone.instructions_full +=
        total_cycles * static_cast<std::uint64_t>(result.cone.instructions);
    result.cone.instructions_cone += static_cast<std::uint64_t>(span.length()) *
                                     (total_cycles - fault.cycle);
    if (t >= shard_begin && t < shard_end) faults[t - shard_begin] = fault;
  }
  result.cone.schedule_mean_cone_fraction =
      cone_frac_sum / static_cast<double>(options.trials);

  // The run state is one checkpoint: cursor, summary and kept trials.  A
  // fresh run starts it empty; a resume loads it from the checkpoint file.
  CampaignCheckpoint state;
  state.fingerprint = campaign_fingerprint(options);
  state.cursor = shard_begin;
  const bool use_checkpoint = !options.checkpoint_file.empty();
  if (use_checkpoint) {
    if (std::optional<CampaignCheckpoint> cp =
            load_checkpoint(options.checkpoint_file)) {
      if (cp->fingerprint != state.fingerprint) {
        throw std::runtime_error(
            "run_campaign: checkpoint belongs to a different campaign "
            "(fingerprint mismatch)");
      }
      if (cp->cursor < shard_begin || cp->cursor > shard_end) {
        throw std::runtime_error(
            "run_campaign: checkpoint cursor outside this shard's range");
      }
      const std::size_t done = cp->cursor - shard_begin;
      if (cp->trials_run != done) {
        throw std::runtime_error(
            "run_campaign: checkpoint outcome counts inconsistent with "
            "cursor");
      }
      if (cp->kept.size() != (keep ? done : 0)) {
        throw std::runtime_error(
            "run_campaign: checkpoint trial list inconsistent with cursor");
      }
      state = std::move(*cp);
    }
  }
  if (keep) state.kept.reserve(shard_trials);

  // Chunked execution: each chunk is a contiguous trial range, classified
  // into a chunk-local buffer (bounded memory) and folded into the summary
  // in trial order (identical floating-point/counter order on every
  // engine, thread count and chunk size).
  const std::size_t chunk_size =
      options.checkpoint_every != 0 ? options.checkpoint_every : kDefaultChunk;

  const auto run_interpreted_chunk = [&](std::size_t c0, std::size_t c1,
                                         std::vector<FaultTrial>& out) {
    for (std::size_t t = c0; t < c1; ++t) {
      const rtl::Fault& fault = faults[t - shard_begin];
      rtl::Simulator sim(dut.netlist);
      rtl::FaultInjector inj(dut.netlist, sim);
      inj.arm(fault);
      if (flag_net != rtl::kNullNet) inj.watch(flag_net);
      const hw::StreamResult got = hw::run_stream_faulty(dut, inj, stimulus);
      out[t - c0] = classify_trial(fault, got, golden, inj.watch_triggered());
    }
  };

  // Compiled chunk: up to 256 trials per tape pass, batches sharded across
  // a worker pool.  With replay on, the chunk's trials are first ordered by
  // one key, (persistence, strike cycle, trial index): a batch holding a
  // stuck fault never retires (the force outlives every cycle), so stuck
  // faults are segregated from the transients, whose batches then retire
  // once their upsets drain; cycle-sorting both maximizes each batch's
  // pre-fault skip and keeps its post-drain retirement window tight.  Every
  // batch still writes only its own trials, so results are independent of
  // the ordering, scheduling and thread count.
  //
  // One session per pool worker for the whole campaign, reset for each
  // batch it runs, so its state arrays are allocated once.
  std::vector<std::unique_ptr<BatchSession>> sessions(
      compiled ? common::resolve_threads(options.threads) : 0);
  const auto run_compiled_chunk = [&](std::size_t c0, std::size_t c1,
                                      std::vector<FaultTrial>& out) {
    constexpr std::size_t kBatchLanes = BatchSession::kTotalLanes;
    const std::size_t n = c1 - c0;
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    if (replay) {
      // One word per trial: persistence in bit 63, the strike cycle in bits
      // 32..62 (a trace within its budget is shorter than 2^31 cycles), the
      // trial index in the low 32 bits.
      static_assert(kTraceBytesLimit / 8 < (std::uint64_t{1} << 31));
      std::vector<std::uint64_t> keys(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        const rtl::Fault& f = faults[c0 - shard_begin + i];
        const bool sticky = f.kind == rtl::FaultKind::kStuckAt0 ||
                            f.kind == rtl::FaultKind::kStuckAt1;
        keys[i] = (std::uint64_t{sticky} << 63) | (f.cycle << 32) | i;
      }
      std::sort(keys.begin(), keys.end());
      for (std::size_t k = 0; k < n; ++k) {
        order[k] = static_cast<std::uint32_t>(keys[k]);
      }
    }
    const std::size_t n_batches = (n + kBatchLanes - 1) / kBatchLanes;
    std::atomic<std::size_t> next_worker{0};
    common::run_pool(n_batches, options.threads, [&]() {
      std::unique_ptr<BatchSession>& mine = sessions[next_worker++];
      if (!mine) {
        mine = std::make_unique<BatchSession>(tape, trace);
        mine->sim().set_native(native);
      }
      return [&, &sess = *mine](std::size_t b) {
        const std::size_t t0 = b * kBatchLanes;
        const unsigned lanes =
            static_cast<unsigned>(std::min<std::size_t>(kBatchLanes, n - t0));
        sess.reset();
        for (unsigned l = 0; l < lanes; ++l) {
          sess.arm(l, faults[c0 - shard_begin + order[t0 + l]]);
        }
        if (flag_net != rtl::kNullNet) sess.watch(flag_net);
        const std::vector<hw::StreamResult> got =
            hw::run_stream_batch(dut, sess, stimulus, lanes);
        const auto& watch = sess.watch_block();
        for (unsigned l = 0; l < lanes; ++l) {
          const std::uint32_t idx = order[t0 + l];
          out[idx] = classify_trial(faults[c0 - shard_begin + idx], got[l],
                                    golden, watch.get(l));
        }
      };
    });
  };

  std::vector<FaultTrial> chunk;
  while (state.cursor < shard_end) {
    const std::size_t c0 = state.cursor;
    const std::size_t c1 = std::min(shard_end, c0 + chunk_size);
    chunk.assign(c1 - c0, FaultTrial{});
    if (compiled) {
      run_compiled_chunk(c0, c1, chunk);
    } else {
      run_interpreted_chunk(c0, c1, chunk);
    }
    for (FaultTrial& trial : chunk) {
      state.add(trial);
      if (keep) {
        trial.net_name = dut.netlist.net(trial.fault.net).name;
        state.kept.push_back(std::move(trial));
      }
    }
    state.cursor = c1;
    if (use_checkpoint) {
      write_checkpoint_atomic(options.checkpoint_file, state);
      if (options.checkpoint_hook) options.checkpoint_hook(c1 - shard_begin);
    }
  }

  static_cast<CampaignSummary&>(result) = state;
  result.trials = std::move(state.kept);
  return result;
}

TradeoffPoint resilience_point(const CampaignResult& r) {
  TradeoffPoint p;
  p.name = r.spec.name + "+" + rtl::to_string(r.harden);
  p.area_les = static_cast<double>(r.hardened.logic_elements);
  p.period_ns = r.hardened.fmax_mhz > 0 ? 1000.0 / r.hardened.fmax_mhz : 0.0;
  p.sdc_rate = r.sdc_rate();
  return p;
}

}  // namespace dwt::explore
