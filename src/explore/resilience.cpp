#include "explore/resilience.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "core/artifact_cache.hpp"
#include "dsp/image_gen.hpp"
#include "dsp/metrics.hpp"
#include "explore/campaign_io.hpp"
#include "fpga/device.hpp"
#include "fpga/timing.hpp"
#include "hw/stream_runner.hpp"
#include "rtl/compiled/batch_fault.hpp"
#include "rtl/compiled/cone_session.hpp"
#include "rtl/simulator.hpp"

namespace dwt::explore {
namespace {

/// Default trials per execution chunk (summary fold + checkpoint cadence).
/// Larger chunks let the cycle-sorted batching (run_compiled_chunk) pack
/// each 64*W-lane batch into a tighter strike-cycle window, which shrinks
/// the active interval the cone engine must evaluate; 16k trials is still
/// only a few MB of chunk-local records.
constexpr std::size_t kDefaultChunk = 16384;
/// Above this many trials in a shard the per-trial list is auto-disabled so
/// million-trial campaigns run in constant memory.
constexpr std::size_t kKeepTrialsLimit = 1'000'000;
/// In-memory budget for the golden trace; past it the cone restriction
/// falls back to full-tape execution (results are identical either way).
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

/// PSNR of the corrupted coefficient stream against golden, over the
/// concatenated low/high bands.
double coeff_psnr(const hw::StreamResult& got, const hw::StreamResult& gold) {
  std::vector<double> a;
  std::vector<double> b;
  a.reserve(gold.low.size() + gold.high.size());
  b.reserve(a.capacity());
  for (std::size_t i = 0; i < gold.low.size(); ++i) {
    a.push_back(static_cast<double>(gold.low[i]));
    b.push_back(static_cast<double>(got.low[i]));
  }
  for (std::size_t i = 0; i < gold.high.size(); ++i) {
    a.push_back(static_cast<double>(gold.high[i]));
    b.push_back(static_cast<double>(got.high[i]));
  }
  return dsp::psnr(a, b);
}

std::int64_t max_abs_error(const hw::StreamResult& got,
                           const hw::StreamResult& gold) {
  std::int64_t worst = 0;
  for (std::size_t i = 0; i < gold.low.size(); ++i) {
    worst = std::max(worst, std::abs(got.low[i] - gold.low[i]));
    worst = std::max(worst, std::abs(got.high[i] - gold.high[i]));
  }
  return worst;
}

/// Outcome/PSNR classification of one trial -- shared by both engines so a
/// trial's record depends only on its coefficient stream and watch flag.
FaultTrial classify_trial(const rtl::Fault& fault, const std::string& net_name,
                          const hw::StreamResult& got,
                          const hw::StreamResult& golden, bool watch_hit) {
  FaultTrial trial;
  trial.fault = fault;
  trial.net_name = net_name;
  const bool corrupted = got.low != golden.low || got.high != golden.high;
  if (watch_hit) {
    trial.outcome = FaultOutcome::kDetected;
  } else if (corrupted) {
    trial.outcome = FaultOutcome::kSilentCorruption;
  } else {
    trial.outcome = FaultOutcome::kMasked;
  }
  trial.psnr_db = coeff_psnr(got, golden);
  trial.max_abs_error = max_abs_error(got, golden);
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
  if (options.lanes != 64 && options.lanes != 128 && options.lanes != 256) {
    throw std::invalid_argument("run_campaign: lanes must be 64, 128 or 256");
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
  // Fault overlays pin individual nets, so kFull's slot sharing is off the
  // table: clamp to the fault-overlay-safe level.
  const rtl::compiled::OptLevel level =
      options.opt_level == rtl::compiled::OptLevel::kFull
          ? rtl::compiled::OptLevel::kSafe
          : options.opt_level;
  std::shared_ptr<const rtl::compiled::Tape> tape;
  if (compiled) tape = cache.tape(result.spec.config, options.harden, level);

  // Cone restriction: compiled engine only, and only while the golden trace
  // fits the in-memory budget.  Purely a throughput knob -- the cone path
  // is bit-exact with the full-tape path.
  bool cone_active = compiled && options.cone;
  if (cone_active &&
      rtl::compiled::GoldenTrace::bytes_needed(
          total_cycles, tape->slot_count()) > kTraceBytesLimit) {
    cone_active = false;
    std::fprintf(stderr,
                 "run_campaign: cone restriction disabled (golden trace "
                 "would exceed the in-memory budget); falling back to "
                 "full-tape batches\n");
  }
  std::shared_ptr<const rtl::compiled::ConeIndex> run_cone;
  std::shared_ptr<rtl::compiled::GoldenTrace> trace;
  if (cone_active) {
    run_cone = cache.cone_index(result.spec.config, options.harden, level);
    trace = std::make_shared<rtl::compiled::GoldenTrace>(tape->slot_count());
  }

  // Golden references: the unhardened design defines correctness; the
  // hardened one must reproduce it fault-free (a transform bug fails loudly
  // here rather than skewing the campaign).  Each engine produces its own
  // golden -- they are bit-exact, so the reports stay byte-identical.
  hw::StreamResult golden;
  if (compiled) {
    rtl::compiled::BatchFaultSession sess(
        cache.tape(result.spec.config, rtl::HardeningStyle::kNone, level));
    sess.sim().set_native(
        cache.native_for(options.exec_tier, result.spec.config,
                         rtl::HardeningStyle::kNone, level, 1));
    golden = std::move(hw::run_stream_batch(built, sess, stimulus, 1).front());
  } else {
    rtl::Simulator sim(built.netlist);
    golden = hw::run_stream(built, sim, stimulus);
  }
  {
    hw::StreamResult check;
    bool flagged = false;
    if (compiled) {
      rtl::compiled::BatchFaultSession clean(tape);
      clean.sim().set_native(cache.native_for(
          options.exec_tier, result.spec.config, options.harden, level, 1));
      if (flag_net != rtl::kNullNet) clean.watch(flag_net);
      // The fault-free pass doubles as the golden trace recording for the
      // cone-restricted batches.
      if (cone_active) clean.set_trace(trace.get());
      check = std::move(hw::run_stream_batch(dut, clean, stimulus, 1).front());
      flagged = clean.watch_mask() != 0;
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

  // The static cone statistics are computed over the fault-overlay-safe
  // tape regardless of engine, opt level or restriction state, so the JSON
  // block is identical on every knob setting and in every shard.
  const std::shared_ptr<const rtl::compiled::Tape> safe_tape = cache.tape(
      result.spec.config, options.harden, rtl::compiled::OptLevel::kSafe);
  const std::shared_ptr<const rtl::compiled::ConeIndex> safe_cone =
      cache.cone_index(result.spec.config, options.harden,
                       rtl::compiled::OptLevel::kSafe);
  result.cone.instructions = safe_cone->instr_count();
  result.cone.mean_span_fraction = safe_cone->mean_span_fraction();

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
    const rtl::compiled::ConeSpan span =
        safe_cone->span_of_net(*safe_tape, fault.net);
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

  // Summary accumulators (resumable).  The PSNR sum is an exact
  // superaccumulator, so checkpoint and shard boundaries cannot perturb the
  // rounding of the final mean.
  std::size_t cursor = shard_begin;
  std::uint64_t n_masked = 0;
  std::uint64_t n_detected = 0;
  std::uint64_t n_sdc = 0;
  std::uint64_t n_corrupted = 0;
  double psnr_min = std::numeric_limits<double>::infinity();
  common::ExactAcc psnr_acc;
  std::vector<FaultTrial> kept_trials;
  if (keep) kept_trials.reserve(shard_trials);

  const bool use_checkpoint = !options.checkpoint_file.empty();
  const std::string fingerprint = campaign_fingerprint(options);
  if (use_checkpoint) {
    if (std::optional<CampaignCheckpoint> cp =
            load_checkpoint(options.checkpoint_file)) {
      if (cp->fingerprint != fingerprint) {
        throw std::runtime_error(
            "run_campaign: checkpoint belongs to a different campaign "
            "(fingerprint mismatch)");
      }
      if (cp->cursor < shard_begin || cp->cursor > shard_end) {
        throw std::runtime_error(
            "run_campaign: checkpoint cursor outside this shard's range");
      }
      const std::size_t done = cp->cursor - shard_begin;
      if (cp->kept.size() != (keep ? done : 0)) {
        throw std::runtime_error(
            "run_campaign: checkpoint trial list inconsistent with cursor");
      }
      cursor = cp->cursor;
      n_masked = cp->masked;
      n_detected = cp->detected;
      n_sdc = cp->sdc;
      n_corrupted = cp->corrupted;
      psnr_min = std::bit_cast<double>(cp->min_psnr_bits);
      psnr_acc = cp->psnr_acc;
      kept_trials = std::move(cp->kept);
    }
  }

  // Chunked execution: each chunk is a contiguous trial range, classified
  // into a chunk-local buffer (bounded memory) and folded into the summary
  // in trial order (identical floating-point/counter order on every
  // engine, thread count, lane width and chunk size).
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
      out[t - c0] = classify_trial(fault, dut.netlist.net(fault.net).name, got,
                                   golden, inj.watch_triggered());
    }
  };

  // Compiled chunk: up to 64*W trials per tape pass, batches sharded across
  // a worker pool.  With the cone restriction on, the chunk's trials are
  // first ordered by (persistence, injection cycle, cone interval): stuck
  // faults hold their force forever and retire only once the golden trace
  // absorbs their forced value into a constant tail (a later and rarer
  // event than a transient's pipeline drain), so they are segregated from
  // the transients, and cycle-sorting both maximizes each batch's pre-fault
  // skip and keeps its post-drain retirement window tight.  Every batch still writes only its
  // own trials, so results are independent of the ordering, scheduling and
  // thread count.
  const auto run_compiled_chunk = [&]<unsigned W>(std::size_t c0,
                                                  std::size_t c1,
                                                  std::vector<FaultTrial>& out) {
    constexpr std::size_t kBatchLanes =
        rtl::compiled::WideBatchSession<W>::kTotalLanes;
    const std::size_t n = c1 - c0;
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    if (cone_active) {
      const auto key = [&](std::uint32_t i) {
        const rtl::Fault& f = faults[c0 - shard_begin + i];
        const rtl::compiled::ConeSpan span =
            run_cone->span_of_net(*tape, f.net);
        const bool sticky = f.kind == rtl::FaultKind::kStuckAt0 ||
                            f.kind == rtl::FaultKind::kStuckAt1;
        return std::tuple<bool, std::uint64_t, std::uint32_t, std::uint32_t,
                          std::uint32_t>(sticky, f.cycle, span.lo, span.hi, i);
      };
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return key(a) < key(b);
                });
    }
    const std::size_t n_batches = (n + kBatchLanes - 1) / kBatchLanes;
    // Both session kinds share the cache's native block; the simulator
    // runs it for clock edges and whole-tape unforced settles only.
    const std::shared_ptr<const rtl::compiled::NativeBlock> native =
        cache.native_for(options.exec_tier, result.spec.config, options.harden,
                         level, W);
    const auto run_one = [&](auto& sess, std::size_t t0, unsigned lanes) {
      for (unsigned l = 0; l < lanes; ++l) {
        sess.arm(l, faults[c0 - shard_begin + order[t0 + l]]);
      }
      if (flag_net != rtl::kNullNet) sess.watch(flag_net);
      const std::vector<hw::StreamResult> got =
          hw::run_stream_batch(dut, sess, stimulus, lanes);
      const auto& watch = sess.watch_block();
      for (unsigned l = 0; l < lanes; ++l) {
        const std::uint32_t idx = order[t0 + l];
        const rtl::Fault& fault = faults[c0 - shard_begin + idx];
        out[idx] = classify_trial(fault, dut.netlist.net(fault.net).name,
                                  got[l], golden, watch.get(l));
      }
    };
    common::run_pool(n_batches, options.threads, [&]() {
      return [&](std::size_t b) {
        const std::size_t t0 = b * kBatchLanes;
        const unsigned lanes =
            static_cast<unsigned>(std::min<std::size_t>(kBatchLanes, n - t0));
        if (cone_active) {
          rtl::compiled::ConeBatchSession<W> sess(tape, run_cone, trace);
          sess.sim().set_native(native);
          run_one(sess, t0, lanes);
        } else {
          rtl::compiled::WideBatchSession<W> sess(tape);
          sess.sim().set_native(native);
          run_one(sess, t0, lanes);
        }
      };
    });
  };

  std::vector<FaultTrial> chunk;
  while (cursor < shard_end) {
    const std::size_t c_end = std::min(shard_end, cursor + chunk_size);
    chunk.assign(c_end - cursor, FaultTrial{});
    if (compiled) {
      switch (options.lanes) {
        case 64:
          run_compiled_chunk.template operator()<1>(cursor, c_end, chunk);
          break;
        case 128:
          run_compiled_chunk.template operator()<2>(cursor, c_end, chunk);
          break;
        default:
          run_compiled_chunk.template operator()<4>(cursor, c_end, chunk);
          break;
      }
    } else {
      run_interpreted_chunk(cursor, c_end, chunk);
    }
    for (FaultTrial& trial : chunk) {
      switch (trial.outcome) {
        case FaultOutcome::kMasked: ++n_masked; break;
        case FaultOutcome::kDetected: ++n_detected; break;
        case FaultOutcome::kSilentCorruption: ++n_sdc; break;
      }
      // A trial is corrupted iff its stream differs from golden anywhere,
      // i.e. the worst absolute coefficient error is nonzero.
      if (trial.max_abs_error != 0) {
        ++n_corrupted;
        psnr_acc.add(trial.psnr_db);
        psnr_min = std::min(psnr_min, trial.psnr_db);
      }
      if (keep) kept_trials.push_back(std::move(trial));
    }
    cursor = c_end;
    if (use_checkpoint) {
      CampaignCheckpoint cp;
      cp.fingerprint = fingerprint;
      cp.cursor = cursor;
      cp.masked = n_masked;
      cp.detected = n_detected;
      cp.sdc = n_sdc;
      cp.corrupted = n_corrupted;
      cp.min_psnr_bits = std::bit_cast<std::uint64_t>(psnr_min);
      cp.psnr_acc = psnr_acc;
      cp.kept = kept_trials;
      write_checkpoint_atomic(options.checkpoint_file, cp);
      if (options.checkpoint_hook) {
        options.checkpoint_hook(cursor - shard_begin);
      }
    }
  }

  result.trials_run = shard_trials;
  result.masked = n_masked;
  result.detected = n_detected;
  result.sdc = n_sdc;
  result.corrupted = n_corrupted;
  result.psnr_acc = psnr_acc;
  if (n_corrupted > 0) {
    result.min_psnr_db = psnr_min;
    result.mean_psnr_db =
        psnr_acc.round() / static_cast<double>(n_corrupted);
  }
  result.trials = std::move(kept_trials);
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

std::string to_json(const CampaignResult& r) {
  std::string out;
  out.reserve(4096 + 96 * r.trials.size());
  out += "{\n";
  out += "  \"design\": \"" + r.spec.name + "\",\n";
  out += std::string("  \"harden\": \"") + rtl::to_string(r.harden) + "\",\n";
  out += "  \"seed\": " + std::to_string(r.seed) + ",\n";
  out += "  \"samples\": " + std::to_string(r.samples) + ",\n";
  out += "  \"fault_kinds\": [";
  for (std::size_t i = 0; i < r.kinds.size(); ++i) {
    if (i) out += ", ";
    out += std::string("\"") + rtl::to_string(r.kinds[i]) + "\"";
  }
  out += "],\n";
  out += "  \"trials\": " + std::to_string(r.trials_run) + ",\n";
  out += "  \"outcomes\": {\"masked\": " + std::to_string(r.masked) +
         ", \"detected\": " + std::to_string(r.detected) +
         ", \"sdc\": " + std::to_string(r.sdc) + "},\n";
  out += "  \"sdc_rate\": ";
  common::append_json_fixed(out, r.sdc_rate());
  out += ",\n";
  out += "  \"corrupted_trials\": " + std::to_string(r.corrupted) + ",\n";
  out += "  \"min_psnr_db\": ";
  common::append_json_fixed(out, r.corrupted > 0
                              ? r.min_psnr_db
                              : std::numeric_limits<double>::infinity());
  out += ",\n";
  out += "  \"mean_psnr_db\": ";
  common::append_json_fixed(out, r.corrupted > 0
                              ? r.mean_psnr_db
                              : std::numeric_limits<double>::infinity());
  out += ",\n";
  out += "  \"baseline\": {\"logic_elements\": " +
         std::to_string(r.baseline.logic_elements) +
         ", \"ff_count\": " + std::to_string(r.baseline.ff_count) +
         ", \"fmax_mhz\": ";
  common::append_json_fixed(out, r.baseline.fmax_mhz);
  out += "},\n";
  out += "  \"hardened\": {\"logic_elements\": " +
         std::to_string(r.hardened.logic_elements) +
         ", \"ff_count\": " + std::to_string(r.hardened.ff_count) +
         ", \"fmax_mhz\": ";
  common::append_json_fixed(out, r.hardened.fmax_mhz);
  out += ", \"protected_ffs\": " +
         std::to_string(r.harden_report.protected_ffs) +
         ", \"added_ffs\": " + std::to_string(r.harden_report.added_ffs) +
         ", \"added_gates\": " + std::to_string(r.harden_report.added_gates) +
         ", \"parity_groups\": " +
         std::to_string(r.harden_report.parity_groups) + "},\n";
  out += "  \"overhead\": {\"le_ratio\": ";
  common::append_json_fixed(out, r.baseline.logic_elements > 0
                              ? static_cast<double>(r.hardened.logic_elements) /
                                    static_cast<double>(
                                        r.baseline.logic_elements)
                              : 0.0);
  out += ", \"fmax_ratio\": ";
  common::append_json_fixed(out, r.baseline.fmax_mhz > 0
                              ? r.hardened.fmax_mhz / r.baseline.fmax_mhz
                              : 0.0);
  out += "},\n";
  // Static schedule statistics of the cone restriction (see ConeStats):
  // identical across engines, knobs, and shards by construction.
  out += "  \"cone\": {\"instructions\": " +
         std::to_string(r.cone.instructions) + ", \"mean_span_fraction\": ";
  common::append_json_fixed(out, r.cone.mean_span_fraction);
  out += ", \"schedule_mean_cone_fraction\": ";
  common::append_json_fixed(out, r.cone.schedule_mean_cone_fraction);
  out += ", \"instructions_full\": " +
         std::to_string(r.cone.instructions_full) +
         ", \"instructions_cone\": " +
         std::to_string(r.cone.instructions_cone) + "},\n";
  if (r.shard_count > 1) {
    // Exact merge carriers (campaign_io.hpp): the superaccumulator and the
    // min-PSNR bit pattern let `faultcampaign merge` reproduce the
    // unsharded bytes without re-rounding.  Absent from unsharded reports,
    // which is exactly what the merged output must look like.
    const double shard_min = r.corrupted > 0
                                 ? r.min_psnr_db
                                 : std::numeric_limits<double>::infinity();
    static const char* const digits = "0123456789abcdef";
    std::string min_hex(16, '0');
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(shard_min);
    for (int i = 0; i < 16; ++i) {
      min_hex[static_cast<std::size_t>(i)] =
          digits[(bits >> (4 * (15 - i))) & 0xF];
    }
    out += "  \"shard\": {\"index\": " + std::to_string(r.shard_index) +
           ", \"count\": " + std::to_string(r.shard_count) +
           ", \"trial_begin\": " + std::to_string(r.trial_begin) +
           ", \"trial_end\": " + std::to_string(r.trial_end) +
           ", \"min_psnr_bits\": \"" + min_hex + "\", \"psnr_acc\": \"" +
           r.psnr_acc.to_hex() + "\"},\n";
  }
  out += "  \"trial_list\": [";
  for (std::size_t i = 0; i < r.trials.size(); ++i) {
    const FaultTrial& t = r.trials[i];
    out += i ? ",\n    " : "\n    ";
    out += std::string("{\"kind\": \"") + rtl::to_string(t.fault.kind) +
           "\", \"net\": " + std::to_string(t.fault.net) + ", \"net_name\": \"" +
           t.net_name + "\", \"cycle\": " + std::to_string(t.fault.cycle) +
           ", \"outcome\": \"" + to_string(t.outcome) +
           "\", \"max_abs_error\": " + std::to_string(t.max_abs_error) +
           ", \"psnr_db\": ";
    common::append_json_fixed(out, t.psnr_db);
    out += "}";
  }
  out += r.trials.empty() ? "],\n" : "\n  ],\n";
  out += "  \"trials_kept\": " + std::to_string(r.trials.size()) + "\n";
  out += "}\n";
  return out;
}

}  // namespace dwt::explore
