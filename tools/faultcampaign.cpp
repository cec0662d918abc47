// faultcampaign -- deterministic soft-error campaigns over the five DWT
// architectures, with optional TMR / parity hardening.
//
//   faultcampaign --design 1..5 [--adder ARCH] [--faults seu,glitch,sa0,sa1]
//                 [--trials N]
//                 [--seed S] [--harden none|tmr|parity] [--samples N]
//                 [--threads N] [--backend rtl-interpreted|rtl-compiled]
//                 [--no-cone] [--shards N --shard-index I]
//                 [--checkpoint FILE] [--checkpoint-every N]
//                 [--no-trial-list] [--out report.json]
//   faultcampaign merge OUT.json SHARD.json...
//
// Emits a JSON report (stdout by default).  Identical arguments produce
// byte-identical output, so reports diff cleanly across revisions -- and
// the two engines produce byte-identical reports for the same seed, so
// `--backend rtl-interpreted` remains available as a cross-check of the
// fast (default) `rtl-compiled` bit-parallel engine.  `--backend` takes the
// core registry names dwt97cli, dwt97d and the benches use; campaigns
// inject faults at netlist granularity, so only the gate-level rtl
// backends are accepted.  The compiled engine packs 256 fault trials into
// one pass over the fault-overlay-safe tape on the fastest execution tier
// the host supports (DWT_EXEC_TIER overrides it process-wide).  `--no-cone`
// turns off golden-trace replay, so every batch simulates every cycle
// instead of serving the cycles before its first fault and after it
// retires from the recorded fault-free run (the flag keeps the name of the
// cone-restricted engine replay replaced).  Neither `--backend`,
// `--threads` nor `--no-cone` changes the report bytes.  `--adder` swaps
// the design's adder architecture (carry-chain, ripple-gates, kogge-stone,
// brent-kung, hybrid-ksbk): unlike the perf knobs this changes the netlist
// and hence the fault space, so it IS part of the campaign identity (and
// of the checkpoint fingerprint).
//
// Scale-out: `--shards N --shard-index I` executes only shard I's
// contiguous slice of the trial schedule (same seed on every shard);
// `faultcampaign merge` folds the per-shard reports back into the exact
// bytes the unsharded run prints, in any argument order.  `--checkpoint`
// makes a run crash-tolerant: progress is persisted atomically after every
// chunk (`--checkpoint-every`, default 16384 trials) and a killed run
// restarted with the same arguments resumes from the checkpoint with
// byte-identical output.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "explore/campaign_io.hpp"
#include "explore/resilience.hpp"
#include "rtl/adder_arch.hpp"

namespace {

namespace cli = dwt::cli;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  faultcampaign --design 1..5 [--adder ARCH]\n"
      "                [--faults seu,glitch,sa0,sa1]\n"
      "                [--trials N] [--seed S] [--harden none|tmr|parity]\n"
      "                [--samples N] [--backend rtl-interpreted|rtl-compiled]\n"
      "                [--no-cone] [--shards N --shard-index I]\n"
      "                [--checkpoint FILE] [--checkpoint-every N]\n"
      "                [--threads N] [--no-trial-list] [--out report.json]\n"
      "  faultcampaign merge OUT.json SHARD.json...\n");
  return 2;
}

/// `faultcampaign merge OUT.json SHARD.json...`: folds per-shard reports
/// into the byte-exact unsharded report.
int run_merge(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "merge needs an output path and at least one "
                         "shard report\n");
    return usage();
  }
  const std::string out_path = argv[2];
  try {
    std::vector<std::string> reports;
    for (int i = 3; i < argc; ++i) reports.push_back(cli::read_file(argv[i]));
    const std::string merged = dwt::explore::merge_reports(reports);
    if (out_path == "-") {
      std::fputs(merged.c_str(), stdout);
    } else {
      cli::write_file(out_path, merged);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

bool parse_kinds(const std::string& arg,
                 std::vector<dwt::rtl::FaultKind>& kinds) {
  kinds.clear();
  std::size_t start = 0;
  while (start <= arg.size()) {
    const std::size_t comma = arg.find(',', start);
    const std::string tok = arg.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (tok == "seu") {
      kinds.push_back(dwt::rtl::FaultKind::kSeuFlip);
    } else if (tok == "glitch") {
      kinds.push_back(dwt::rtl::FaultKind::kGlitch);
    } else if (tok == "sa0") {
      kinds.push_back(dwt::rtl::FaultKind::kStuckAt0);
    } else if (tok == "sa1") {
      kinds.push_back(dwt::rtl::FaultKind::kStuckAt1);
    } else {
      return false;
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return !kinds.empty();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "merge") == 0) {
    return run_merge(argc, argv);
  }
  dwt::explore::ResilienceOptions opt;
  opt.seed = 42;
  std::string out_path;
  bool design_set = false;
  if (!cli::parse_flags(
          argc, argv, 1,
          {cli::value_flag("--design",
                           [&](const char* v) {
                             unsigned long long n = 0;
                             if (!cli::parse_uint(v, 1, 5, &n)) return false;
                             opt.design = static_cast<dwt::hw::DesignId>(n - 1);
                             design_set = true;
                             return true;
                           }),
           // Changes the netlist (and hence the fault space), unlike the
           // backend/threads/replay knobs which never change the report
           // bytes.
           cli::value_flag(
               "--adder",
               [&](const char* v) {
                 opt.adder = dwt::rtl::parse_adder(v);
                 return opt.adder.has_value();
               },
               "carry-chain, ripple-gates, kogge-stone, brent-kung or "
               "hybrid-ksbk"),
           cli::value_flag(
               "--faults",
               [&](const char* v) { return parse_kinds(v, opt.kinds); },
               "seu, glitch, sa0 or sa1, comma-separated"),
           cli::uint_flag("--trials", 1, 1ULL << 32, &opt.trials),
           cli::uint_flag("--seed", 0, ~0ULL, &opt.seed),
           cli::uint_flag("--samples", 2, 1ULL << 24, &opt.samples),
           cli::value_flag(
               "--harden",
               [&](const char* v) {
                 const std::string h = v;
                 if (h == "none") {
                   opt.harden = dwt::rtl::HardeningStyle::kNone;
                 } else if (h == "tmr") {
                   opt.harden = dwt::rtl::HardeningStyle::kTmr;
                 } else if (h == "parity") {
                   opt.harden = dwt::rtl::HardeningStyle::kParity;
                 } else {
                   return false;
                 }
                 return true;
               },
               "none, tmr or parity"),
           cli::value_flag(
               "--backend",
               [&](const char* v) {
                 const std::optional<dwt::explore::CampaignEngine> engine =
                     dwt::explore::engine_from_backend(v);
                 if (engine) opt.engine = *engine;
                 return engine.has_value();
               },
               "campaigns run on rtl-interpreted or rtl-compiled"),
           cli::uint_flag("--threads", 0, 1024, &opt.threads),
           cli::switch_flag("--no-cone", [&] { opt.cone = false; }),
           cli::uint_flag("--shards", 1, 1ULL << 20, &opt.shard_count),
           cli::uint_flag("--shard-index", 0, 1ULL << 20, &opt.shard_index),
           cli::text_flag("--checkpoint", &opt.checkpoint_file),
           cli::uint_flag("--checkpoint-every", 1, 1ULL << 32,
                          &opt.checkpoint_every),
           cli::switch_flag("--no-trial-list",
                            [&] { opt.keep_trials = false; }),
           cli::text_flag("--out", &out_path)}) ||
      !design_set) {
    return usage();
  }

  try {
    const dwt::explore::CampaignResult result =
        dwt::explore::run_campaign(opt);
    const std::string json = dwt::explore::to_json(result);
    if (out_path.empty()) {
      std::fputs(json.c_str(), stdout);
    } else {
      cli::write_file(out_path, json);
      std::fprintf(stderr, "%s: %zu trials written\n", out_path.c_str(),
                   result.trials_run);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
