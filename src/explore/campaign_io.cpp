#include "explore/campaign_io.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/json_writer.hpp"

namespace dwt::explore {
namespace {

constexpr const char* kMagic = "dwtcampaign-checkpoint v1";
// The error prefixes of the two readers.
constexpr const char* kCheckpoint = "campaign checkpoint";
constexpr const char* kMerge = "merge_reports";

void append_u64_hex(std::string& out, std::uint64_t v) {
  static const char* const digits = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) out += digits[(v >> (4 * i)) & 0xF];
}

std::uint64_t parse_u64_hex(const std::string& s, const char* who) {
  if (s.size() != 16) {
    throw std::runtime_error(std::string(who) + ": bad hex field width");
  }
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      throw std::runtime_error(std::string(who) + ": bad hex digit");
    }
  }
  return v;
}

/// The exact PSNR accumulator from its hex form, failing as `who`.
common::ExactAcc parse_acc(const std::string& s, const char* who) {
  try {
    return common::ExactAcc::from_hex(s);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string(who) + ": bad psnr_acc (" +
                             e.what() + ")");
  }
}

/// Next line of `in`; throws on EOF (every truncation is an error -- the
/// atomic write protocol means a valid file is always complete).
std::string need_line(std::istringstream& in, const char* what) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error(std::string("campaign checkpoint: truncated (") +
                             what + ")");
  }
  return line;
}

/// Parses "<key> <value...>" returning the value; throws when the line does
/// not start with the expected key.
std::string need_field(std::istringstream& in, const std::string& key) {
  const std::string line = need_line(in, key.c_str());
  if (line.size() < key.size() + 1 || line.compare(0, key.size(), key) != 0 ||
      line[key.size()] != ' ') {
    throw std::runtime_error("campaign checkpoint: expected field '" + key +
                             "'");
  }
  return line.substr(key.size() + 1);
}

/// Non-negative decimal no larger than `max`, failing as `who`.
std::uint64_t parse_u64(const std::string& s, const char* what,
                        std::uint64_t max =
                            std::numeric_limits<std::uint64_t>::max(),
                        const char* who = kCheckpoint) {
  const auto error = [&] {
    return std::runtime_error(std::string(who) + ": bad number (" + what +
                              ")");
  };
  if (s.empty() ||
      s.find_first_not_of("0123456789") != std::string::npos) {
    throw error();
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size() || v > max) {
    throw error();
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

std::string campaign_fingerprint(const ResilienceOptions& options) {
  // Every option that can change the produced bytes; performance knobs
  // (engine, lanes, threads, opt level, cone, chunk size) are deliberately
  // absent -- the engines are bit-exact, so a checkpoint may resume under
  // different performance settings.  keep_trials participates raw: its
  // auto-disable threshold is a pure function of trials/shard fields, which
  // are already fingerprinted.
  std::string fp;
  fp.reserve(96);
  fp += "design=";
  fp += std::to_string(static_cast<int>(options.design));
  if (options.adder.has_value()) {
    // Appended only when set so pre-existing checkpoints (no override)
    // keep their fingerprint bytes.
    fp += ";adder=";
    fp += std::to_string(static_cast<int>(*options.adder));
  }
  fp += ";harden=";
  fp += std::to_string(static_cast<int>(options.harden));
  fp += ";kinds=";
  for (std::size_t i = 0; i < options.kinds.size(); ++i) {
    if (i) fp += ',';
    fp += std::to_string(static_cast<int>(options.kinds[i]));
  }
  fp += ";trials=";
  fp += std::to_string(options.trials);
  fp += ";seed=";
  fp += std::to_string(options.seed);
  fp += ";samples=";
  fp += std::to_string(options.samples);
  fp += ";shards=";
  fp += std::to_string(options.shard_count);
  fp += ";shard=";
  fp += std::to_string(options.shard_index);
  fp += ";keep=";
  fp += options.keep_trials ? '1' : '0';
  return fp;
}

std::string serialize_checkpoint(const CampaignCheckpoint& cp) {
  std::string out;
  out.reserve(256 + 96 * cp.kept.size());
  out += kMagic;
  out += '\n';
  out += "fingerprint " + cp.fingerprint + "\n";
  out += "cursor " + std::to_string(cp.cursor) + "\n";
  out += "masked " + std::to_string(cp.masked) + "\n";
  out += "detected " + std::to_string(cp.detected) + "\n";
  out += "sdc " + std::to_string(cp.sdc) + "\n";
  out += "corrupted " + std::to_string(cp.corrupted) + "\n";
  out += "min_psnr_bits ";
  append_u64_hex(out, cp.min_psnr_bits);
  out += '\n';
  out += "psnr_acc " + cp.psnr_acc.to_hex() + "\n";
  out += "kept " + std::to_string(cp.kept.size()) + "\n";
  for (const FaultTrial& t : cp.kept) {
    out += "trial ";
    out += std::to_string(static_cast<int>(t.fault.kind));
    out += ' ';
    out += std::to_string(t.fault.net);
    out += ' ';
    out += std::to_string(t.fault.cycle);
    out += ' ';
    out += t.fault.glitch_value ? '1' : '0';
    out += ' ';
    out += std::to_string(static_cast<int>(t.outcome));
    out += ' ';
    out += std::to_string(t.max_abs_error);
    out += ' ';
    append_u64_hex(out, std::bit_cast<std::uint64_t>(t.psnr_db));
    out += ' ';
    // The net name goes last: it is the only field that could contain
    // spaces, so the parser takes the rest of the line.
    out += t.net_name;
    out += '\n';
  }
  out += "end\n";
  return out;
}

CampaignCheckpoint parse_checkpoint(const std::string& text) {
  std::istringstream in(text);
  if (need_line(in, "magic") != kMagic) {
    throw std::runtime_error("campaign checkpoint: bad magic line");
  }
  CampaignCheckpoint cp;
  cp.fingerprint = need_field(in, "fingerprint");
  cp.cursor = parse_u64(need_field(in, "cursor"), "cursor");
  cp.masked = parse_u64(need_field(in, "masked"), "masked");
  cp.detected = parse_u64(need_field(in, "detected"), "detected");
  cp.sdc = parse_u64(need_field(in, "sdc"), "sdc");
  cp.corrupted = parse_u64(need_field(in, "corrupted"), "corrupted");
  cp.min_psnr_bits =
      parse_u64_hex(need_field(in, "min_psnr_bits"), kCheckpoint);
  cp.psnr_acc = parse_acc(need_field(in, "psnr_acc"), kCheckpoint);
  // The declared count reserves nothing: a short file fails as truncated
  // once its trial lines run out.
  const std::uint64_t kept = parse_u64(need_field(in, "kept"), "kept");
  for (std::uint64_t i = 0; i < kept; ++i) {
    std::istringstream line(need_line(in, "trial"));
    std::string tag;
    std::string kind;
    std::string net;
    std::string cycle;
    std::string glitch;
    std::string outcome;
    std::string max_err;
    std::string psnr;
    if (!(line >> tag >> kind >> net >> cycle >> glitch >> outcome >>
          max_err >> psnr) ||
        tag != "trial") {
      throw std::runtime_error("campaign checkpoint: malformed trial line");
    }
    FaultTrial t;
    const std::uint64_t k = parse_u64(kind, "trial kind");
    if (k > 3) {
      throw std::runtime_error("campaign checkpoint: bad fault kind");
    }
    t.fault.kind = static_cast<rtl::FaultKind>(k);
    t.fault.net = static_cast<rtl::NetId>(parse_u64(
        net, "trial net", std::numeric_limits<rtl::NetId>::max()));
    t.fault.cycle = parse_u64(cycle, "trial cycle");
    if (glitch != "0" && glitch != "1") {
      throw std::runtime_error("campaign checkpoint: bad glitch value");
    }
    t.fault.glitch_value = glitch == "1";
    const std::uint64_t o = parse_u64(outcome, "trial outcome");
    if (o > 2) {
      throw std::runtime_error("campaign checkpoint: bad outcome");
    }
    t.outcome = static_cast<FaultOutcome>(o);
    // An absolute error: never negative, and within the int64 it loads into.
    t.max_abs_error = static_cast<std::int64_t>(
        parse_u64(max_err, "trial max_abs_error",
                  std::numeric_limits<std::int64_t>::max()));
    t.psnr_db = std::bit_cast<double>(parse_u64_hex(psnr, kCheckpoint));
    std::string name;
    std::getline(line, name);
    if (!name.empty() && name[0] == ' ') name.erase(0, 1);
    t.net_name = std::move(name);
    cp.kept.push_back(std::move(t));
  }
  if (need_line(in, "end") != "end") {
    throw std::runtime_error("campaign checkpoint: missing end marker");
  }
  // The end marker's own newline is the last byte a checkpoint holds.
  if (in.peek() != std::istringstream::traits_type::eof()) {
    throw std::runtime_error("campaign checkpoint: bytes after end marker");
  }
  return cp;
}

void write_checkpoint_atomic(const std::string& path,
                             const CampaignCheckpoint& cp) {
  const std::string tmp = path + ".tmp";
  const std::string text = serialize_checkpoint(cp);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("campaign checkpoint: cannot open " + tmp);
    }
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("campaign checkpoint: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("campaign checkpoint: rename failed for " + path);
  }
}

std::optional<CampaignCheckpoint> load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    throw std::runtime_error("campaign checkpoint: read failed for " + path);
  }
  return parse_checkpoint(buf.str());
}

namespace {

// ---------------------------------------------------------------------------
// Report merge
// ---------------------------------------------------------------------------

/// Placeholder tokens standing in for the recomputed lines in the static
/// skeleton, so the skeletons of all shards can be compared byte-for-byte.
constexpr const char* kTokTrials = "\x01trials";
constexpr const char* kTokOutcomes = "\x01outcomes";
constexpr const char* kTokSdcRate = "\x01sdc_rate";
constexpr const char* kTokCorrupted = "\x01corrupted";
constexpr const char* kTokMin = "\x01min";
constexpr const char* kTokMean = "\x01mean";
constexpr const char* kTokShard = "\x01shard";
constexpr const char* kTokTrialList = "\x01trial_list";
constexpr const char* kTokKept = "\x01kept";

bool starts_with(const std::string& s, const char* prefix) {
  return s.compare(0, std::char_traits<char>::length(prefix), prefix) == 0;
}

/// The decimal after `"key": ` in `line`.
std::uint64_t scan_u64(const std::string& line, const std::string& key,
                       const char* what) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    throw std::runtime_error(std::string("merge_reports: missing ") + what);
  }
  const std::size_t start = pos + needle.size();
  const std::size_t end = line.find_first_not_of("0123456789", start);
  return parse_u64(line.substr(start, end - start), what,
                   std::numeric_limits<std::uint64_t>::max(), kMerge);
}

std::string scan_string(const std::string& line, const std::string& key,
                        const char* what) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    throw std::runtime_error(std::string("merge_reports: missing ") + what);
  }
  const std::size_t start = pos + needle.size();
  const std::size_t end = line.find('"', start);
  if (end == std::string::npos) {
    throw std::runtime_error(std::string("merge_reports: unterminated ") +
                             what);
  }
  return line.substr(start, end - start);
}

/// One shard report decomposed into its static skeleton (with placeholder
/// tokens), the recomputed values, and the trial-list entries.
struct ShardDoc {
  std::vector<std::string> skeleton;
  std::uint64_t trials = 0;
  std::uint64_t masked = 0;
  std::uint64_t detected = 0;
  std::uint64_t sdc = 0;
  std::uint64_t corrupted = 0;
  bool has_shard = false;
  std::uint64_t index = 0;
  std::uint64_t count = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t min_bits = 0;
  common::ExactAcc acc;
  std::vector<std::string> entries;  ///< trial objects, comma-free
};

ShardDoc parse_report(const std::string& text) {
  ShardDoc doc;
  std::vector<std::string> lines;
  {
    std::size_t pos = 0;
    while (pos <= text.size()) {
      const std::size_t nl = text.find('\n', pos);
      if (nl == std::string::npos) {
        lines.push_back(text.substr(pos));
        break;
      }
      lines.push_back(text.substr(pos, nl - pos));
      pos = nl + 1;
    }
  }
  bool saw_list = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (starts_with(line, "  \"trials\": ")) {
      doc.trials = scan_u64(line, "trials", "trials");
      doc.skeleton.emplace_back(kTokTrials);
    } else if (starts_with(line, "  \"outcomes\": ")) {
      doc.masked = scan_u64(line, "masked", "outcomes.masked");
      doc.detected = scan_u64(line, "detected", "outcomes.detected");
      doc.sdc = scan_u64(line, "sdc", "outcomes.sdc");
      doc.skeleton.emplace_back(kTokOutcomes);
    } else if (starts_with(line, "  \"sdc_rate\": ")) {
      doc.skeleton.emplace_back(kTokSdcRate);
    } else if (starts_with(line, "  \"corrupted_trials\": ")) {
      doc.corrupted = scan_u64(line, "corrupted_trials", "corrupted_trials");
      doc.skeleton.emplace_back(kTokCorrupted);
    } else if (starts_with(line, "  \"min_psnr_db\": ")) {
      doc.skeleton.emplace_back(kTokMin);
    } else if (starts_with(line, "  \"mean_psnr_db\": ")) {
      doc.skeleton.emplace_back(kTokMean);
    } else if (starts_with(line, "  \"shard\": ")) {
      doc.has_shard = true;
      doc.index = scan_u64(line, "index", "shard.index");
      doc.count = scan_u64(line, "count", "shard.count");
      doc.begin = scan_u64(line, "trial_begin", "shard.trial_begin");
      doc.end = scan_u64(line, "trial_end", "shard.trial_end");
      doc.min_bits = parse_u64_hex(
          scan_string(line, "min_psnr_bits", "shard.min_psnr_bits"), kMerge);
      doc.acc =
          parse_acc(scan_string(line, "psnr_acc", "shard.psnr_acc"), kMerge);
      doc.skeleton.emplace_back(kTokShard);
    } else if (starts_with(line, "  \"trials_kept\": ")) {
      doc.skeleton.emplace_back(kTokKept);
    } else if (starts_with(line, "  \"trial_list\": [")) {
      saw_list = true;
      doc.skeleton.emplace_back(kTokTrialList);
      if (line == "  \"trial_list\": [],") continue;  // empty, single line
      if (line != "  \"trial_list\": [") {
        throw std::runtime_error("merge_reports: malformed trial_list open");
      }
      for (++i;; ++i) {
        if (i >= lines.size()) {
          throw std::runtime_error(
              "merge_reports: unterminated trial_list");
        }
        if (lines[i] == "  ],") break;
        std::string entry = lines[i];
        if (entry.size() < 4 || entry.compare(0, 4, "    ") != 0) {
          throw std::runtime_error("merge_reports: malformed trial entry");
        }
        entry.erase(0, 4);
        if (!entry.empty() && entry.back() == ',') entry.pop_back();
        doc.entries.push_back(std::move(entry));
      }
    } else {
      doc.skeleton.push_back(line);
    }
  }
  if (!saw_list) {
    throw std::runtime_error("merge_reports: input is not a campaign report");
  }
  return doc;
}

}  // namespace

std::string merge_reports(const std::vector<std::string>& reports) {
  if (reports.empty()) {
    throw std::runtime_error("merge_reports: no reports given");
  }
  std::vector<ShardDoc> docs;
  docs.reserve(reports.size());
  for (const std::string& r : reports) docs.push_back(parse_report(r));

  // A lone unsharded report (no shard object) is already final.
  if (docs.size() == 1 && !docs[0].has_shard) return reports[0];

  for (const ShardDoc& d : docs) {
    if (!d.has_shard) {
      throw std::runtime_error(
          "merge_reports: mixing sharded and unsharded reports");
    }
    if (d.count != docs.size()) {
      throw std::runtime_error(
          "merge_reports: incomplete shard set (count mismatch)");
    }
  }
  std::vector<const ShardDoc*> order(docs.size());
  for (const ShardDoc& d : docs) {
    if (d.index >= docs.size()) {
      throw std::runtime_error("merge_reports: shard index out of range");
    }
    if (order[d.index] != nullptr) {
      throw std::runtime_error("merge_reports: duplicate shard index");
    }
    order[d.index] = &d;
  }
  std::uint64_t expect = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i]->begin != expect || order[i]->end < order[i]->begin) {
      throw std::runtime_error(
          "merge_reports: shard trial ranges are not contiguous");
    }
    if (order[i]->end - order[i]->begin != order[i]->trials) {
      throw std::runtime_error(
          "merge_reports: shard trial count disagrees with its range");
    }
    expect = order[i]->end;
  }
  // Every static (non-recomputed) line must agree byte-for-byte: the shards
  // ran the same design, synthesis, cone statistics and schedule.
  for (std::size_t i = 1; i < docs.size(); ++i) {
    if (docs[i].skeleton != docs[0].skeleton) {
      throw std::runtime_error(
          "merge_reports: reports disagree on a non-summary line "
          "(different campaigns?)");
    }
  }

  const std::uint64_t total = expect;
  std::uint64_t masked = 0;
  std::uint64_t detected = 0;
  std::uint64_t sdc = 0;
  std::uint64_t corrupted = 0;
  double min_psnr = std::numeric_limits<double>::infinity();
  common::ExactAcc acc;
  std::size_t kept = 0;
  for (const ShardDoc* d : order) {
    masked += d->masked;
    detected += d->detected;
    sdc += d->sdc;
    corrupted += d->corrupted;
    min_psnr = std::min(min_psnr, std::bit_cast<double>(d->min_bits));
    acc.add(d->acc);
    kept += d->entries.size();
  }

  std::string out;
  out.reserve(reports[0].size() * reports.size());
  bool first_line = true;
  const auto emit = [&](const std::string& line) {
    if (!first_line) out += '\n';
    first_line = false;
    out += line;
  };
  for (const std::string& line : docs[0].skeleton) {
    if (line == kTokTrials) {
      emit("  \"trials\": " + std::to_string(total) + ",");
    } else if (line == kTokOutcomes) {
      emit("  \"outcomes\": {\"masked\": " + std::to_string(masked) +
           ", \"detected\": " + std::to_string(detected) +
           ", \"sdc\": " + std::to_string(sdc) + "},");
    } else if (line == kTokSdcRate) {
      std::string l = "  \"sdc_rate\": ";
      common::append_json_fixed(
          l, total == 0 ? 0.0
                        : static_cast<double>(sdc) / static_cast<double>(total));
      emit(l + ",");
    } else if (line == kTokCorrupted) {
      emit("  \"corrupted_trials\": " + std::to_string(corrupted) + ",");
    } else if (line == kTokMin) {
      std::string l = "  \"min_psnr_db\": ";
      common::append_json_fixed(
          l, corrupted > 0 ? min_psnr
                           : std::numeric_limits<double>::infinity());
      emit(l + ",");
    } else if (line == kTokMean) {
      std::string l = "  \"mean_psnr_db\": ";
      common::append_json_fixed(
          l, corrupted > 0 ? acc.round() / static_cast<double>(corrupted)
                           : std::numeric_limits<double>::infinity());
      emit(l + ",");
    } else if (line == kTokShard) {
      // Dropped: the merged report is the unsharded report.
    } else if (line == kTokTrialList) {
      if (kept == 0) {
        emit("  \"trial_list\": [],");
      } else {
        emit("  \"trial_list\": [");
        std::size_t n = 0;
        for (const ShardDoc* d : order) {
          for (const std::string& entry : d->entries) {
            ++n;
            emit("    " + entry + (n == kept ? "" : ","));
          }
        }
        emit("  ],");
      }
    } else if (line == kTokKept) {
      emit("  \"trials_kept\": " + std::to_string(kept));
    } else {
      emit(line);
    }
  }
  return out;
}

}  // namespace dwt::explore
