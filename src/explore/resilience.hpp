// Resilience campaign runner: streams an image-derived workload through a
// design (optionally hardened) while injecting faults, classifies each trial
// as masked / detected / silent data corruption, measures the PSNR
// degradation of the coefficient stream, and prices the hardening through
// the same APEX mapper + static-timing machinery as paper Table 3 -- adding
// a resilience axis to the area/throughput/power trade-off space.
//
// What a campaign counts is one CampaignSummary: the run folds each trial
// into it, a checkpoint persists it, a result carries it, and the shard
// merge sums the shards' summaries (campaign_io.hpp), so every path holds
// the same seven numbers and prints them through the same report writer.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/exact_acc.hpp"
#include "explore/pareto.hpp"
#include "hw/designs.hpp"
#include "rtl/fault.hpp"
#include "rtl/harden.hpp"

namespace dwt::explore {

/// Execution backend for a campaign.  Both engines are bit-exact: identical
/// options produce identical CampaignResults (and identical JSON) on either,
/// which the test suite asserts.  The compiled engine packs 256 fault
/// trials into one bit-parallel pass over the fault-overlay-safe tape and
/// shards batches across a worker pool.
enum class CampaignEngine {
  kInterpreted,  ///< scalar rtl::Simulator + rtl::FaultInjector, one trial at a time
  kCompiled,     ///< rtl::compiled batch engine, 256 trials per tape pass
};

/// Maps a core registry backend name onto the campaign engine that runs on
/// it ("rtl-interpreted" / "rtl-compiled").  nullopt for every other backend
/// (campaigns inject faults at netlist granularity, so only the gate-level
/// rtl engines apply).
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
  /// Golden-trace replay for the compiled engine (the name predates it):
  /// the fault-free run is recorded once, and each batch serves the cycles
  /// before its first fault and after it rejoins the fault-free state from
  /// that trace instead of simulating them (rtl/compiled/batch_fault.hpp).
  /// Bit-exact with simulating every cycle -- results and JSON are
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
  /// 0 = default (16384).  Chunking bounds memory: only one chunk of trial
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

/// What a campaign counts over the trials it folded.  Every number is
/// exact (counts, a minimum, an exact sum), so summaries folded per chunk,
/// restored from a checkpoint or added per shard equal the straight
/// per-trial fold bit for bit.
struct CampaignSummary {
  std::uint64_t trials_run = 0;
  std::uint64_t masked = 0;
  std::uint64_t detected = 0;
  std::uint64_t sdc = 0;
  /// Trials whose coefficient stream differs from golden (any outcome).
  std::uint64_t corrupted = 0;
  /// Lowest corrupted-trial PSNR; +inf while no trial is corrupted.
  double min_psnr_db = std::numeric_limits<double>::infinity();
  /// Exact sum of the corrupted trials' PSNRs, so checkpoint and shard
  /// boundaries cannot perturb the rounding of the mean.
  common::ExactAcc psnr_acc;

  /// Folds one classified trial.
  void add(const FaultTrial& trial);
  /// Folds another summary, as if its trials followed this one's.
  void add(const CampaignSummary& other);

  /// Correctly-rounded mean corrupted-trial PSNR; +inf when none.
  [[nodiscard]] double mean_psnr_db() const {
    return corrupted > 0
               ? psnr_acc.round() / static_cast<double>(corrupted)
               : std::numeric_limits<double>::infinity();
  }
  [[nodiscard]] double sdc_rate() const {
    return trials_run == 0
               ? 0.0
               : static_cast<double>(sdc) / static_cast<double>(trials_run);
  }
};

/// Area/f_max of one netlist through simplify -> APEX map -> STA.
struct SynthesisCost {
  std::size_t logic_elements = 0;
  std::size_t ff_count = 0;
  double fmax_mhz = 0.0;
};

/// Static fan-out-cone model of the campaign's fault schedule over the
/// fault-overlay-safe tape: what an engine that settled only each fault's
/// cone interval would execute.  No engine runs that way -- every batch
/// settles the whole tape -- so these are properties of the schedule, not
/// of the run.  Computed from the ConeIndex and the full drawn schedule, so
/// the block is identical on both engines, at every thread count, with
/// replay on or off, and in every shard of a sharded run.
struct ConeStats {
  std::size_t instructions = 0;  ///< tape length (cone fraction denominator)
  /// Mean cone-interval fraction over all slots with a non-empty cone.
  double mean_span_fraction = 0.0;
  /// Mean cone-interval fraction over the campaign's drawn faults.
  double schedule_mean_cone_fraction = 0.0;
  /// Tape instructions a full-tape run of the whole schedule executes, and
  /// what an ideal cone-restricted run would execute (post-injection cycles
  /// over each fault's cone interval).
  std::uint64_t instructions_full = 0;
  std::uint64_t instructions_cone = 0;
};

/// A finished campaign (or one shard of it): its summary plus what it ran
/// on and what it cost.
struct CampaignResult : CampaignSummary {
  hw::DesignSpec spec;
  rtl::HardeningStyle harden = rtl::HardeningStyle::kNone;
  rtl::HardeningReport harden_report;
  SynthesisCost baseline;  ///< unhardened design
  SynthesisCost hardened;  ///< == baseline when harden == kNone
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
};

/// Runs the campaign.  Deterministic: identical options produce an identical
/// CampaignResult (and identical to_json serialization).
[[nodiscard]] CampaignResult run_campaign(const ResilienceOptions& options);

/// Projects a campaign onto the trade-off space: hardened area/period plus
/// the measured silent-corruption rate (power is not measured by campaigns
/// and stays 0).
[[nodiscard]] TradeoffPoint resilience_point(const CampaignResult& r);

/// Deterministic JSON report (stable key order, fixed float formatting).
/// Defined in campaign_io.cpp, beside the shard merge that prints merged
/// reports through the same writer.
[[nodiscard]] std::string to_json(const CampaignResult& r);

}  // namespace dwt::explore
