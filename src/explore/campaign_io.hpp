// Campaign persistence: the JSON report, crash-tolerant checkpoints for
// long fault-injection runs, and the byte-stable merge that folds sharded
// campaign reports back into the exact bytes an unsharded run prints.
//
// Checkpoints are small text files written atomically (write to a sibling
// .tmp, then rename) after every chunk of trials.  A checkpoint is the run
// state itself: the cursor, the CampaignSummary (counters, the min-PSNR bit
// pattern, the exact PSNR accumulator of common/exact_acc.hpp) and -- when
// the per-trial list is kept -- the trial records completed so far.  A
// killed run restarted with the same options loads the checkpoint, verifies
// its fingerprint, and continues from the recorded cursor; the finished
// report is byte-identical to an uninterrupted run because every carried
// quantity is exact.
//
// One writer prints every report: to_json() and merge_reports() emit the
// summary lines, the "shard" object and the trial list through it.  Shard
// reports embed the exact accumulator and min-PSNR bit pattern in their
// "shard" object so the merge never re-rounds: it reads each shard back
// into a summary (a shard that the writer would not reprint byte for byte
// is rejected), sums the summaries in shard order, concatenates the trial
// lists and requires every static line (design, synthesis costs, cone
// statistics...) to be byte-identical across shards.  The result is the
// unsharded report, for any shard count and any argument order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "explore/resilience.hpp"

namespace dwt::explore {

/// The run state of one (possibly sharded) campaign, as persisted between
/// chunks.  All fields are exact, so resuming cannot drift.  trials_run is
/// not stored: a parsed checkpoint derives it from the outcome counts.
struct CampaignCheckpoint : CampaignSummary {
  std::string fingerprint;   ///< must equal the resuming run's fingerprint
  std::uint64_t cursor = 0;  ///< next absolute trial index to execute
  /// Per-trial records completed so far; empty when the run does not keep
  /// the trial list.
  std::vector<FaultTrial> kept;
};

/// Identity of the byte stream a campaign produces: every option that can
/// change the results participates; pure performance knobs (engine,
/// threads, golden-trace replay, chunk size) do not, since the engines are
/// bit-exact -- a checkpoint taken on one engine may resume on another.
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
/// inputs are not a complete, consistent shard set: a report the writer
/// would not reprint byte for byte, mixed configurations, duplicate or
/// missing shard indices, non-contiguous trial ranges, or any static line
/// differing between shards.  Argument order is irrelevant.
[[nodiscard]] std::string merge_reports(const std::vector<std::string>& reports);

}  // namespace dwt::explore
