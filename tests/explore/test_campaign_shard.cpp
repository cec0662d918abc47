#include "explore/campaign_io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/exact_acc.hpp"
#include "explore/resilience.hpp"
#include "support/mutation.hpp"

namespace dwt::explore {
namespace {

ResilienceOptions shard_campaign() {
  ResilienceOptions opt;
  opt.design = hw::DesignId::kDesign2;
  opt.kinds = {rtl::FaultKind::kSeuFlip, rtl::FaultKind::kGlitch,
               rtl::FaultKind::kStuckAt0, rtl::FaultKind::kStuckAt1};
  opt.trials = 37;  // deliberately not divisible by the shard counts
  opt.seed = 321;
  opt.samples = 16;
  return opt;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------------------
// ExactAcc
// ---------------------------------------------------------------------------

TEST(ExactAcc, SumsAreExactAndOrderIndependent) {
  const std::vector<double> xs = {1e16, 3.25, -1e16, 1e-30, 7.5,
                                  -2.875, 1e300, -1e300};
  common::ExactAcc fwd;
  common::ExactAcc rev;
  for (const double x : xs) fwd.add(x);
  for (auto it = xs.rbegin(); it != xs.rend(); ++it) rev.add(*it);
  EXPECT_EQ(fwd, rev);
  // 1e16 and -1e16 cancel exactly; the rest sum to 7.875 + 1e-30, which
  // rounds to 7.875.
  EXPECT_DOUBLE_EQ(fwd.round(), 7.875);
}

TEST(ExactAcc, MergeEqualsSingleAccumulator) {
  common::ExactAcc whole;
  common::ExactAcc a;
  common::ExactAcc b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(static_cast<double>(i)) * 1e10;
    whole.add(x);
    (i < 50 ? a : b).add(x);
  }
  a.add(b);
  EXPECT_EQ(whole, a);
  EXPECT_EQ(whole.round(), a.round());
}

TEST(ExactAcc, HexRoundTrips) {
  common::ExactAcc acc;
  acc.add(-123.456);
  acc.add(1e-300);
  const std::string hex = acc.to_hex();
  EXPECT_EQ(hex.size(), 576u);
  EXPECT_EQ(common::ExactAcc::from_hex(hex), acc);
  EXPECT_THROW((void)common::ExactAcc::from_hex("zz"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Sharding
// ---------------------------------------------------------------------------

TEST(CampaignShard, MergedShardsReproduceUnshardedBytes) {
  ResilienceOptions opt = shard_campaign();
  const std::string whole = to_json(run_campaign(opt));
  for (const unsigned shards : {1u, 2u, 7u}) {
    std::vector<std::string> reports;
    std::size_t trials_seen = 0;
    for (unsigned i = 0; i < shards; ++i) {
      opt.shard_count = shards;
      opt.shard_index = i;
      const CampaignResult r = run_campaign(opt);
      trials_seen += r.trials_run;
      EXPECT_EQ(r.trial_end - r.trial_begin, r.trials_run);
      reports.push_back(to_json(r));
    }
    EXPECT_EQ(trials_seen, opt.trials);
    EXPECT_EQ(merge_reports(reports), whole)
        << "shard count " << shards;
  }
}

TEST(CampaignShard, MergeIsOrderInvariant) {
  ResilienceOptions opt = shard_campaign();
  opt.shard_count = 3;
  std::vector<std::string> reports;
  for (unsigned i = 0; i < 3; ++i) {
    opt.shard_index = i;
    reports.push_back(to_json(run_campaign(opt)));
  }
  const std::string merged = merge_reports(reports);
  std::vector<std::string> shuffled = {reports[2], reports[0], reports[1]};
  EXPECT_EQ(merge_reports(shuffled), merged);
  std::vector<std::string> reversed = {reports[2], reports[1], reports[0]};
  EXPECT_EQ(merge_reports(reversed), merged);
}

TEST(CampaignShard, ShardReportsCarryScheduleWideConeStats) {
  ResilienceOptions opt = shard_campaign();
  const CampaignResult whole = run_campaign(opt);
  opt.shard_count = 2;
  opt.shard_index = 1;
  const CampaignResult shard = run_campaign(opt);
  // Static cone statistics are drawn from the full schedule, so every shard
  // agrees with the unsharded run.
  EXPECT_EQ(shard.cone.instructions, whole.cone.instructions);
  EXPECT_EQ(shard.cone.instructions_full, whole.cone.instructions_full);
  EXPECT_EQ(shard.cone.instructions_cone, whole.cone.instructions_cone);
  EXPECT_EQ(shard.cone.schedule_mean_cone_fraction,
            whole.cone.schedule_mean_cone_fraction);
  EXPECT_GT(whole.cone.instructions_full, whole.cone.instructions_cone);
}

TEST(CampaignShard, RejectsBadShardArguments) {
  ResilienceOptions opt = shard_campaign();
  opt.shard_count = 0;
  EXPECT_THROW(run_campaign(opt), std::invalid_argument);
  opt.shard_count = 2;
  opt.shard_index = 2;
  EXPECT_THROW(run_campaign(opt), std::invalid_argument);
  opt.shard_count = 1000;
  opt.shard_index = 0;
  EXPECT_THROW(run_campaign(opt), std::invalid_argument);  // > trials
}

TEST(CampaignShard, MergeRejectsInconsistentInputs) {
  ResilienceOptions opt = shard_campaign();
  opt.shard_count = 2;
  opt.shard_index = 0;
  const std::string s0 = to_json(run_campaign(opt));
  opt.shard_index = 1;
  const std::string s1 = to_json(run_campaign(opt));

  EXPECT_THROW(merge_reports({}), std::runtime_error);
  // Missing shard 1 of 2.
  EXPECT_THROW(merge_reports({s0}), std::runtime_error);
  // Duplicate shard.
  EXPECT_THROW(merge_reports({s0, s0}), std::runtime_error);
  // Mixing different campaigns: different seed changes static lines.
  ResilienceOptions other = shard_campaign();
  other.seed = 999;
  other.shard_count = 2;
  other.shard_index = 1;
  EXPECT_THROW(merge_reports({s0, to_json(run_campaign(other))}),
               std::runtime_error);
  // Garbage input.
  EXPECT_THROW(merge_reports({"not json"}), std::runtime_error);
  // A single unsharded report passes through untouched.
  const std::string whole = to_json(run_campaign(shard_campaign()));
  EXPECT_EQ(merge_reports({whole}), whole);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

TEST(CampaignCheckpointTest, FingerprintCoversAdderAxis) {
  // The adder override changes the netlist, so it must be part of the
  // checkpoint identity -- while campaigns without an override must keep
  // their legacy fingerprint bytes (old checkpoints stay resumable).
  const ResilienceOptions base = shard_campaign();
  const std::string plain = campaign_fingerprint(base);
  EXPECT_EQ(plain.find("adder="), std::string::npos);
  ResilienceOptions ks = base;
  ks.adder = rtl::AdderArch::kKoggeStone;
  const std::string with_ks = campaign_fingerprint(ks);
  EXPECT_NE(with_ks, plain);
  EXPECT_NE(with_ks.find("adder="), std::string::npos);
  ResilienceOptions bk = base;
  bk.adder = rtl::AdderArch::kBrentKung;
  EXPECT_NE(campaign_fingerprint(bk), with_ks);
}

TEST(CampaignCheckpointTest, SerializationRoundTrips) {
  CampaignCheckpoint cp;
  cp.fingerprint = campaign_fingerprint(shard_campaign());
  cp.cursor = 17;
  cp.masked = 5;
  cp.detected = 2;
  cp.sdc = 10;
  cp.corrupted = 12;
  cp.min_psnr_db = 21.75;
  cp.psnr_acc.add(21.75);
  cp.psnr_acc.add(38.5);
  FaultTrial t;
  t.fault.kind = rtl::FaultKind::kGlitch;
  t.fault.net = 42;
  t.fault.cycle = 9;
  t.fault.glitch_value = true;
  t.net_name = "alpha.mul pp[3]";  // space survives the round trip
  t.outcome = FaultOutcome::kSilentCorruption;
  t.psnr_db = 21.75;
  // An absolute error; the largest one the int64 field holds survives.
  t.max_abs_error = std::numeric_limits<std::int64_t>::max();
  cp.kept.push_back(t);
  const CampaignCheckpoint back = parse_checkpoint(serialize_checkpoint(cp));
  EXPECT_EQ(back.fingerprint, cp.fingerprint);
  EXPECT_EQ(back.cursor, cp.cursor);
  EXPECT_EQ(back.masked, cp.masked);
  EXPECT_EQ(back.detected, cp.detected);
  EXPECT_EQ(back.sdc, cp.sdc);
  EXPECT_EQ(back.corrupted, cp.corrupted);
  // Not stored: every folded trial has exactly one outcome.
  EXPECT_EQ(back.trials_run, 17u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.min_psnr_db),
            std::bit_cast<std::uint64_t>(cp.min_psnr_db));
  EXPECT_EQ(back.psnr_acc, cp.psnr_acc);
  ASSERT_EQ(back.kept.size(), 1u);
  EXPECT_EQ(back.kept[0].net_name, t.net_name);
  EXPECT_EQ(back.kept[0].fault.kind, t.fault.kind);
  EXPECT_EQ(back.kept[0].max_abs_error, t.max_abs_error);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.kept[0].psnr_db),
            std::bit_cast<std::uint64_t>(t.psnr_db));
}

TEST(CampaignCheckpointTest, RejectsCorruptFiles) {
  const std::string good = serialize_checkpoint(CampaignCheckpoint{});
  EXPECT_NO_THROW(parse_checkpoint(good));
  // Truncations at every line boundary are rejected.
  std::size_t pos = good.find('\n');
  while (pos != std::string::npos) {
    EXPECT_THROW(parse_checkpoint(good.substr(0, pos + 1)),
                 std::runtime_error);
    pos = good.find('\n', pos + 1);
    if (pos == good.size() - 1) break;
  }
  EXPECT_THROW(parse_checkpoint(""), std::runtime_error);
  EXPECT_THROW(parse_checkpoint("dwtcampaign-checkpoint v2\n"),
               std::runtime_error);
  std::string bad = good;
  bad.replace(bad.find("cursor "), 7, "cursro ");
  EXPECT_THROW(parse_checkpoint(bad), std::runtime_error);
  // Nothing may follow the end marker's newline: appended bytes, a doubled
  // end line or a blank line mean the file is not one checkpoint.
  for (const char* tail : {"garbage after end\n", "end\n", "\n", "x"}) {
    try {
      (void)parse_checkpoint(good + tail);
      ADD_FAILURE() << "accepted a checkpoint followed by '" << tail << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("campaign checkpoint: ", 0), 0u)
          << e.what();
    }
  }

  // A trial's max_abs_error is an absolute error that loads into an int64:
  // negative or wrapping values are corrupt, not -1 or INT64_MIN.
  CampaignCheckpoint one;
  one.kept.emplace_back();
  one.kept.back().max_abs_error = 7;
  one.kept.back().net_name = "n";
  const std::string trial_ok = serialize_checkpoint(one);
  EXPECT_EQ(parse_checkpoint(trial_ok).kept.at(0).max_abs_error, 7);
  const std::size_t at = trial_ok.find(" 7 ", trial_ok.find("\ntrial "));
  ASSERT_NE(at, std::string::npos);
  for (const char* err : {"18446744073709551615", "-9223372036854775808",
                          "-1"}) {
    std::string corrupt = trial_ok;
    corrupt.replace(at + 1, 1, err);
    EXPECT_THROW(parse_checkpoint(corrupt), std::runtime_error) << err;
  }
}

TEST(CampaignCheckpointTest, CrashAndResumeIsByteIdentical) {
  const std::string path = temp_path("dwt_ck_resume_test.txt");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  ResilienceOptions opt = shard_campaign();
  const std::string want = to_json(run_campaign(opt));

  opt.checkpoint_file = path;
  opt.checkpoint_every = 10;
  struct Crash {};
  opt.checkpoint_hook = [](std::size_t done) {
    if (done >= 10) throw Crash{};  // die after the first chunk's checkpoint
  };
  EXPECT_THROW(run_campaign(opt), Crash);

  // Resume: the checkpoint holds the first chunk; the rest runs now.
  opt.checkpoint_hook = nullptr;
  const CampaignResult resumed = run_campaign(opt);
  EXPECT_EQ(to_json(resumed), want);
  std::remove(path.c_str());
}

TEST(CampaignCheckpointTest, RefusesForeignCheckpoint) {
  const std::string path = temp_path("dwt_ck_foreign_test.txt");
  std::remove(path.c_str());

  ResilienceOptions opt = shard_campaign();
  opt.checkpoint_file = path;
  opt.checkpoint_every = 10;
  struct Stop {};
  opt.checkpoint_hook = [](std::size_t) { throw Stop{}; };
  EXPECT_THROW(run_campaign(opt), Stop);

  // Different seed => different fingerprint => refuse to resume.
  ResilienceOptions other = shard_campaign();
  other.seed = 777;
  other.checkpoint_file = path;
  EXPECT_THROW(run_campaign(other), std::runtime_error);

  // A torn file (manual corruption) is rejected, not silently resumed.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "dwtcampaign-checkpoint v1\nfingerprint x\ncursor 5\n";
  }
  opt.checkpoint_hook = nullptr;
  EXPECT_THROW(run_campaign(opt), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CampaignCheckpointTest, ResumeMaySwitchEngines) {
  const std::string path = temp_path("dwt_ck_engine_test.txt");
  std::remove(path.c_str());

  ResilienceOptions opt = shard_campaign();
  const std::string want = to_json(run_campaign(opt));

  opt.checkpoint_file = path;
  opt.checkpoint_every = 10;
  struct Crash {};
  opt.checkpoint_hook = [](std::size_t done) {
    if (done >= 10) throw Crash{};
  };
  EXPECT_THROW(run_campaign(opt), Crash);

  // The fingerprint excludes performance knobs, so the interpreted engine
  // can finish what the compiled engine started -- bytes unchanged.
  opt.engine = CampaignEngine::kInterpreted;
  opt.checkpoint_hook = nullptr;
  EXPECT_EQ(to_json(run_campaign(opt)), want);
  std::remove(path.c_str());
}

TEST(CampaignCheckpointTest, RefusesCountsThatDisagreeWithTheCursor) {
  const std::string path = temp_path("dwt_ck_counts_test.txt");
  std::remove(path.c_str());
  ResilienceOptions opt = shard_campaign();
  opt.checkpoint_file = path;
  opt.checkpoint_every = 10;
  struct Stop {};
  opt.checkpoint_hook = [](std::size_t) { throw Stop{}; };
  EXPECT_THROW(run_campaign(opt), Stop);

  // Ten trials done, but the outcome counts add up to eleven.
  std::optional<CampaignCheckpoint> cp = load_checkpoint(path);
  ASSERT_TRUE(cp.has_value());
  ASSERT_EQ(cp->trials_run, 10u);
  ++cp->masked;
  write_checkpoint_atomic(path, *cp);
  opt.checkpoint_hook = nullptr;
  EXPECT_THROW(run_campaign(opt), std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Recorded formats: tests/fixtures/campaign holds files an earlier build
// wrote (see its README); the writers must still print them byte for byte.
// ---------------------------------------------------------------------------

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string fixture(const std::string& name) {
  return read_bytes(std::string(DWT_CAMPAIGN_FIXTURES) + "/" + name);
}

/// The campaign the recorded files come from.
ResilienceOptions recorded_campaign() {
  ResilienceOptions opt;
  opt.design = hw::DesignId::kDesign1;
  opt.kinds = {rtl::FaultKind::kSeuFlip, rtl::FaultKind::kGlitch,
               rtl::FaultKind::kStuckAt0, rtl::FaultKind::kStuckAt1};
  opt.trials = 300;
  opt.samples = 16;
  opt.seed = 24;
  return opt;
}

TEST(CampaignFormats, ReportsMatchTheRecordedFiles) {
  ResilienceOptions opt = recorded_campaign();
  EXPECT_EQ(to_json(run_campaign(opt)), fixture("report.json"));
  opt.shard_count = 3;
  for (unsigned i = 0; i < 3; ++i) {
    opt.shard_index = i;
    EXPECT_EQ(to_json(run_campaign(opt)),
              fixture("shard" + std::to_string(i) + ".json"))
        << "shard " << i;
  }
}

TEST(CampaignFormats, FirstChunkCheckpointMatchesTheRecordedFile) {
  const std::string path = temp_path("dwt_ck_recorded_test.txt");
  std::remove(path.c_str());
  ResilienceOptions opt = recorded_campaign();
  opt.checkpoint_file = path;
  opt.checkpoint_every = 100;
  struct Stop {};
  opt.checkpoint_hook = [](std::size_t) { throw Stop{}; };
  EXPECT_THROW(run_campaign(opt), Stop);
  const std::string recorded = fixture("first_chunk.ckpt");
  EXPECT_EQ(read_bytes(path), recorded);
  EXPECT_EQ(serialize_checkpoint(parse_checkpoint(recorded)), recorded);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Hostile input: both readers fail as themselves, with std::runtime_error
// ---------------------------------------------------------------------------

/// A checkpoint with `kept` trial records, one net name holding a space.
std::string checkpoint_with_trials(std::size_t kept) {
  CampaignCheckpoint cp;
  cp.fingerprint = campaign_fingerprint(shard_campaign());
  cp.cursor = kept;
  cp.masked = kept;
  for (std::size_t i = 0; i < kept; ++i) {
    FaultTrial t;
    t.fault.kind = static_cast<rtl::FaultKind>(i % 4);
    t.fault.net = static_cast<rtl::NetId>(40 + i);
    t.fault.cycle = i;
    t.net_name = i == 1 ? "alpha.mul pp[3]" : "n" + std::to_string(i);
    t.psnr_db = std::numeric_limits<double>::infinity();
    cp.kept.push_back(t);
  }
  return serialize_checkpoint(cp);
}

/// The two shard reports of a 10-trial campaign: trials [0, 5) and [5, 10).
std::vector<std::string> two_shard_reports() {
  ResilienceOptions opt = shard_campaign();
  opt.trials = 10;
  opt.shard_count = 2;
  std::vector<std::string> reports;
  for (unsigned i = 0; i < 2; ++i) {
    opt.shard_index = i;
    reports.push_back(to_json(run_campaign(opt)));
  }
  return reports;
}

std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// What `f` does: "returned", the message of the std::runtime_error it
/// throws, or "other exception".
template <class F>
std::string outcome_of(F&& f) {
  try {
    f();
  } catch (const std::runtime_error& e) {
    return e.what();
  } catch (...) {
    return "other exception";
  }
  return "returned";
}

void expect_rejected_as(const std::string& got, const std::string& prefix) {
  EXPECT_TRUE(got.starts_with(prefix)) << got;
}

TEST(CampaignIo, RejectsDeclaredCountsAndNumbersOutOfRange) {
  const std::string cp = checkpoint_with_trials(3);
  // A declared trial count reserves nothing: the file runs out of trial
  // lines first.
  for (const char* kept : {"kept 1000000000", "kept 18446744073709551615"}) {
    expect_rejected_as(outcome_of([&] {
                         (void)parse_checkpoint(replaced(cp, "kept 3", kept));
                       }),
                       "campaign checkpoint: ");
  }
  // A net id past NetId does not wrap onto another net.
  expect_rejected_as(outcome_of([&] {
                       (void)parse_checkpoint(replaced(
                           cp, "trial 0 40 ", "trial 0 4294967297 "));
                     }),
                     "campaign checkpoint: ");

  // A shard count past uint64 does not wrap onto the honest one.
  const std::vector<std::string> shards = two_shard_reports();
  ASSERT_NE(shards[0].find("\"trials\": 5,"), std::string::npos);
  const std::string wrapped = replaced(
      replaced(shards[0], "\"trials\": 5,",
               "\"trials\": 18446744073709551621,"),
      "\"trial_end\": 5,", "\"trial_end\": 18446744073709551621,");
  expect_rejected_as(
      outcome_of([&] { (void)merge_reports({wrapped, shards[1]}); }),
      "merge_reports: ");
  // A malformed accumulator fails as the merge, not as the checkpoint or
  // as ExactAcc.
  const std::size_t acc = shards[1].find("\"psnr_acc\": \"") + 13;
  std::string bad_acc = shards[1];
  bad_acc[acc] = 'x';
  expect_rejected_as(
      outcome_of([&] { (void)merge_reports({shards[0], bad_acc}); }),
      "merge_reports: ");
}

TEST(CampaignIo, MutatedCheckpointsParseOrRejectCleanly) {
  std::vector<std::vector<std::uint8_t>> seeds;
  for (const std::size_t kept : {0, 3}) {
    const std::string text = checkpoint_with_trials(kept);
    seeds.emplace_back(text.begin(), text.end());
  }
  const std::size_t unclean = test::count_unclean_mutations(
      seeds, 20261018, 50000, /*header_bytes=*/512,
      [](const std::vector<std::uint8_t>& m) {
        const std::string got = outcome_of(
            [&] { (void)parse_checkpoint(std::string(m.begin(), m.end())); });
        return got == "returned" || got.starts_with("campaign checkpoint: ");
      });
  EXPECT_EQ(unclean, 0u);
}

TEST(CampaignIo, MutatedShardReportsMergeOrRejectCleanly) {
  const std::vector<std::string> shards = two_shard_reports();
  std::vector<std::vector<std::uint8_t>> seeds;
  for (const std::string& r : shards) seeds.emplace_back(r.begin(), r.end());
  const std::size_t unclean = test::count_unclean_mutations(
      seeds, 20261019, 50000, /*header_bytes=*/4096,
      [&](const std::vector<std::uint8_t>& m) {
        const std::string mutant(m.begin(), m.end());
        const auto clean = [](const std::string& got) {
          return got == "returned" || got.starts_with("merge_reports: ");
        };
        return clean(outcome_of([&] {
                 (void)merge_reports({mutant, shards[1]});
               })) &&
               clean(outcome_of([&] {
                 (void)merge_reports({shards[0], mutant});
               }));
      });
  EXPECT_EQ(unclean, 0u);
}

}  // namespace
}  // namespace dwt::explore
