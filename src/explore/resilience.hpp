// Resilience campaign runner: streams an image-derived workload through a
// design (optionally hardened) while injecting faults, classifies each trial
// as masked / detected / silent data corruption, measures the PSNR
// degradation of the coefficient stream, and prices the hardening through
// the same APEX mapper + static-timing machinery as paper Table 3 -- adding
// a resilience axis to the area/throughput/power trade-off space.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/exact_acc.hpp"
#include "explore/pareto.hpp"
#include "hw/designs.hpp"
#include "rtl/compiled/exec_tier.hpp"
#include "rtl/compiled/tape.hpp"
#include "rtl/fault.hpp"
#include "rtl/harden.hpp"

namespace dwt::explore {

/// Execution backend for a campaign.  Both engines are bit-exact: identical
/// options produce identical CampaignResults (and identical JSON) on either,
/// which the test suite asserts.  The compiled engine packs 64 fault trials
/// into one bit-parallel pass and shards batches across a worker pool.
enum class CampaignEngine {
  kInterpreted,  ///< scalar rtl::Simulator + rtl::FaultInjector, one trial at a time
  kCompiled,     ///< rtl::compiled batch engine, 64 trials per tape pass
};

[[nodiscard]] const char* to_string(CampaignEngine e);

/// core registry name of the backend a campaign engine runs on
/// ("rtl-interpreted" / "rtl-compiled").
[[nodiscard]] const char* backend_name(CampaignEngine e);

/// Inverse of backend_name: maps a registry backend name onto the campaign
/// engine that uses it.  nullopt for every other backend (campaigns inject
/// faults at netlist granularity, so only the gate-level rtl engines apply).
[[nodiscard]] std::optional<CampaignEngine> engine_from_backend(
    std::string_view name);

struct ResilienceOptions {
  hw::DesignId design = hw::DesignId::kDesign1;
  /// Adder-architecture override for the design's datapath (the
  /// (design x adder) sweep axis).  The fault space follows the netlist --
  /// prefix adders expose different nets than carry chains -- so campaigns
  /// on different adders draw different schedules; the outcome
  /// classification machinery is architecture-agnostic.  nullopt keeps the
  /// paper realization (and the paper's report bytes).
  std::optional<rtl::AdderArch> adder;
  std::vector<rtl::FaultKind> kinds = {rtl::FaultKind::kSeuFlip};
  std::size_t trials = 100;
  std::uint64_t seed = 2005;
  rtl::HardeningStyle harden = rtl::HardeningStyle::kNone;
  /// Even number of image-derived samples streamed per trial.
  std::size_t samples = 64;
  /// Keep every per-trial record in CampaignResult::trials (the summary
  /// counters are always filled).
  bool keep_trials = true;
  CampaignEngine engine = CampaignEngine::kCompiled;
  /// Worker threads for the compiled engine's batch shards; 0 = one per
  /// hardware thread.  Ignored by the interpreted engine.  Results are
  /// deterministic regardless of the thread count.
  unsigned threads = 0;
  /// Fault trials packed per compiled tape pass: 64, 128 or 256 (lane-block
  /// width 1, 2 or 4 state words per slot).  Ignored by the interpreted
  /// engine.  Classification is per-trial, so results -- and the JSON
  /// report -- are byte-identical at every lane count.
  unsigned lanes = 256;
  /// Tape optimization level for the compiled engine.  kFull is clamped to
  /// kSafe: fault overlays pin individual nets, which needs the
  /// fault-overlay-safe slot mapping (see rtl/compiled/opt/passes.hpp).
  rtl::compiled::OptLevel opt_level = rtl::compiled::OptLevel::kSafe;
  /// Execution tier for the compiled engine's tape walks (kAuto = fastest
  /// the host supports; DWT_EXEC_TIER overrides).  Force-pinned settles and
  /// cone-restricted ranges always run the interpreter regardless, so this
  /// is purely a throughput knob: results -- and the JSON report -- are
  /// byte-identical at every setting, and it is deliberately absent from
  /// the checkpoint fingerprint like the other performance knobs.  Ignored
  /// by the interpreted engine.
  rtl::compiled::ExecTier exec_tier = rtl::compiled::ExecTier::kAuto;
  /// Cone-restricted incremental re-simulation for the compiled engine:
  /// each batch settles only the union fan-out cone of its faults against
  /// the recorded fault-free trace (rtl/compiled/cone_session.hpp).
  /// Bit-exact with the full-tape path -- results and JSON are
  /// byte-identical either way -- so this is purely a throughput knob.
  /// Ignored by the interpreted engine; auto-disabled (with a stderr note)
  /// when the golden trace would exceed the in-memory budget.
  bool cone = true;
  /// Shard this campaign across `shard_count` independent runs, executing
  /// only shard `shard_index`'s contiguous slice of the trial schedule.
  /// Every shard re-draws the full schedule from `seed`, so the slices
  /// partition exactly the trials an unsharded run executes and the merged
  /// shard reports (campaign_io.hpp) reproduce the unsharded report byte
  /// for byte.
  unsigned shard_count = 1;
  unsigned shard_index = 0;
  /// When non-empty, checkpoint progress to this file after every chunk of
  /// trials (atomic write-then-rename); an existing valid checkpoint is
  /// resumed, making campaigns crash-tolerant with byte-identical output.
  std::string checkpoint_file;
  /// Trials per execution chunk (summary fold + checkpoint cadence);
  /// 0 = default (8192).  Chunking bounds memory: only one chunk of trial
  /// records is in flight at a time.
  std::size_t checkpoint_every = 0;
  /// Test hook: invoked after each checkpoint write with the number of
  /// trials completed so far in this shard's range.  May throw to simulate
  /// a crash between chunks.
  std::function<void(std::size_t)> checkpoint_hook;
};

enum class FaultOutcome {
  kMasked,            ///< golden output, no error flag
  kDetected,          ///< error flag raised (output may or may not differ)
  kSilentCorruption,  ///< output differs, no error flag
};

[[nodiscard]] const char* to_string(FaultOutcome o);

struct FaultTrial {
  rtl::Fault fault;
  std::string net_name;
  FaultOutcome outcome = FaultOutcome::kMasked;
  /// PSNR (dB) of the corrupted coefficient stream against golden; +inf when
  /// bit-identical.
  double psnr_db = 0.0;
  std::int64_t max_abs_error = 0;
};

/// Area/f_max of one netlist through simplify -> APEX map -> STA.
struct SynthesisCost {
  std::size_t logic_elements = 0;
  std::size_t ff_count = 0;
  double fmax_mhz = 0.0;
};

/// Static fan-out-cone statistics of the campaign's fault schedule over the
/// fault-overlay-safe tape.  Computed from the ConeIndex and the full drawn
/// schedule -- never from runtime measurements -- so the block is identical
/// on both engines, at every lane/thread/opt knob, with the restriction on
/// or off, and in every shard of a sharded run.
struct ConeStats {
  std::size_t instructions = 0;  ///< tape length (cone fraction denominator)
  /// Mean cone-interval fraction over all slots with a non-empty cone.
  double mean_span_fraction = 0.0;
  /// Mean cone-interval fraction over the campaign's drawn faults.
  double schedule_mean_cone_fraction = 0.0;
  /// Tape instructions a full-tape run of the whole schedule executes, and
  /// what an ideal cone-restricted run executes (post-injection cycles over
  /// each fault's cone interval); the difference is the instructions the
  /// restriction skips.
  std::uint64_t instructions_full = 0;
  std::uint64_t instructions_cone = 0;
};

struct CampaignResult {
  hw::DesignSpec spec;
  rtl::HardeningStyle harden = rtl::HardeningStyle::kNone;
  rtl::HardeningReport harden_report;
  SynthesisCost baseline;  ///< unhardened design
  SynthesisCost hardened;  ///< == baseline when harden == kNone
  std::size_t trials_run = 0;
  std::size_t masked = 0;
  std::size_t detected = 0;
  std::size_t sdc = 0;
  /// Over the corrupted (non-golden-output) trials; 0 when none corrupted.
  double min_psnr_db = 0.0;
  double mean_psnr_db = 0.0;
  std::size_t corrupted = 0;
  std::uint64_t seed = 0;
  std::size_t samples = 0;
  std::vector<rtl::FaultKind> kinds;
  std::vector<FaultTrial> trials;
  ConeStats cone;
  /// Sharding identity of this result (count 1 = unsharded) and the
  /// absolute [trial_begin, trial_end) slice of the schedule it executed.
  unsigned shard_count = 1;
  unsigned shard_index = 0;
  std::size_t trial_begin = 0;
  std::size_t trial_end = 0;
  /// Exact sum of the corrupted trials' PSNRs; mean_psnr_db is its
  /// correctly-rounded value over `corrupted`, and shard reports serialize
  /// it so merges never re-round.
  common::ExactAcc psnr_acc;

  [[nodiscard]] double sdc_rate() const {
    return trials_run == 0
               ? 0.0
               : static_cast<double>(sdc) / static_cast<double>(trials_run);
  }
};

/// Runs the campaign.  Deterministic: identical options produce an identical
/// CampaignResult (and identical to_json serialization).
[[nodiscard]] CampaignResult run_campaign(const ResilienceOptions& options);

/// Projects a campaign onto the trade-off space: hardened area/period plus
/// the measured silent-corruption rate (power is not measured by campaigns
/// and stays 0).
[[nodiscard]] TradeoffPoint resilience_point(const CampaignResult& r);

/// Deterministic JSON report (stable key order, fixed float formatting).
[[nodiscard]] std::string to_json(const CampaignResult& r);

}  // namespace dwt::explore
