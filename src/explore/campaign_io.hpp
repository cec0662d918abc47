// Campaign persistence: crash-tolerant checkpoints for long fault-injection
// runs, and the byte-stable merge that folds sharded campaign reports back
// into the exact bytes an unsharded run prints.
//
// Checkpoints are small text files written atomically (write to a sibling
// .tmp, then rename) after every chunk of trials, carrying the summary
// counters, the exact PSNR accumulator (common/exact_acc.hpp) and -- when
// the per-trial list is kept -- the trial records completed so far.  A
// killed run restarted with the same options loads the checkpoint, verifies
// its fingerprint, and continues from the recorded cursor; the finished
// report is byte-identical to an uninterrupted run because every carried
// quantity is exact (integers, double bit patterns, the superaccumulator).
//
// merge_reports() combines per-shard to_json() outputs.  Shard reports
// embed a "shard" object with the exact accumulator and min-PSNR bit
// pattern precisely so the merge never re-rounds: counters add, minima
// min, accumulators add limb-wise, trial lists concatenate in shard order,
// and every static line (design, synthesis costs, cone statistics...) is
// required to be byte-identical across shards and copied verbatim.  The
// result equals the unsharded report byte for byte, for any shard count
// and any argument order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/exact_acc.hpp"
#include "explore/resilience.hpp"

namespace dwt::explore {

/// Mid-run state of one (possibly sharded) campaign, as persisted between
/// chunks.  All fields are exact, so resuming cannot drift.
struct CampaignCheckpoint {
  std::string fingerprint;   ///< must equal the resuming run's fingerprint
  std::uint64_t cursor = 0;  ///< next absolute trial index to execute
  std::uint64_t masked = 0;
  std::uint64_t detected = 0;
  std::uint64_t sdc = 0;
  std::uint64_t corrupted = 0;
  /// Bit pattern of the running min corrupted-trial PSNR (+inf when none).
  std::uint64_t min_psnr_bits = 0;
  common::ExactAcc psnr_acc;  ///< exact sum of corrupted-trial PSNRs
  /// Per-trial records completed so far; empty when the run does not keep
  /// the trial list.
  std::vector<FaultTrial> kept;
};

/// Identity of the byte stream a campaign produces: every option that can
/// change the results participates; pure performance knobs (engine, lanes,
/// threads, optimization level, cone restriction) do not, since the engines
/// are bit-exact -- a checkpoint taken on one engine may resume on another.
[[nodiscard]] std::string campaign_fingerprint(const ResilienceOptions& options);

/// Serializes / parses the checkpoint text format.  parse_checkpoint throws
/// std::runtime_error on any malformed input -- wrong magic, missing or
/// out-of-order fields, a truncated trial list, a missing end marker, or
/// bytes after it -- so a torn or corrupted file is rejected rather than
/// silently resumed.
[[nodiscard]] std::string serialize_checkpoint(const CampaignCheckpoint& cp);
[[nodiscard]] CampaignCheckpoint parse_checkpoint(const std::string& text);

/// Atomically replaces `path` with the serialized checkpoint (write a .tmp
/// sibling, fsync-free rename): a crash mid-write leaves the previous
/// checkpoint intact.  Throws std::runtime_error on I/O failure.
void write_checkpoint_atomic(const std::string& path,
                             const CampaignCheckpoint& cp);

/// Loads `path` if it exists; nullopt when the file is absent (a fresh
/// run).  A present-but-invalid file throws via parse_checkpoint.
[[nodiscard]] std::optional<CampaignCheckpoint> load_checkpoint(
    const std::string& path);

/// Merges per-shard campaign reports (each a full to_json() output) into
/// the byte-exact unsharded report.  A single report without a "shard"
/// object passes through verbatim.  Throws std::runtime_error when the
/// inputs are not a complete, consistent shard set: mixed configurations,
/// duplicate or missing shard indices, non-contiguous trial ranges, or any
/// static line differing between shards.  Argument order is irrelevant.
[[nodiscard]] std::string merge_reports(const std::vector<std::string>& reports);

}  // namespace dwt::explore
