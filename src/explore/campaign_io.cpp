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
#include <string_view>

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
  // (engine, threads, replay, chunk size) are deliberately absent -- the
  // engines are bit-exact, so a checkpoint may resume under different
  // performance settings.  keep_trials participates raw: its
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
  append_u64_hex(out, std::bit_cast<std::uint64_t>(cp.min_psnr_db));
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
  // Every folded trial has exactly one outcome.
  cp.trials_run = cp.masked + cp.detected + cp.sdc;
  cp.min_psnr_db = std::bit_cast<double>(
      parse_u64_hex(need_field(in, "min_psnr_bits"), kCheckpoint));
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

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

namespace {

/// Where a shard report's trials lie: shard `index` of `count` ran the
/// schedule's trials [begin, end).
struct ShardSlice {
  std::uint64_t index = 0;
  std::uint64_t count = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// The one writer of campaign reports.  `head` and `body` are the static
/// lines before and after the summary lines, `slice` adds the "shard"
/// object of a shard report (unsharded and merged reports have none), and
/// `entry(out, i)` appends the i-th of the `n` kept trial objects.
template <class Entry>
std::string write_report(std::string_view head, const CampaignSummary& s,
                         std::string_view body,
                         const std::optional<ShardSlice>& slice,
                         std::size_t n, Entry entry) {
  std::string out;
  out.reserve(head.size() + body.size() + 1024 + 160 * n);
  out += head;
  out += "  \"trials\": " + std::to_string(s.trials_run) + ",\n";
  out += "  \"outcomes\": {\"masked\": " + std::to_string(s.masked) +
         ", \"detected\": " + std::to_string(s.detected) +
         ", \"sdc\": " + std::to_string(s.sdc) + "},\n";
  out += "  \"sdc_rate\": ";
  common::append_json_fixed(out, s.sdc_rate());
  out += ",\n";
  out += "  \"corrupted_trials\": " + std::to_string(s.corrupted) + ",\n";
  out += "  \"min_psnr_db\": ";
  common::append_json_fixed(out, s.min_psnr_db);
  out += ",\n";
  out += "  \"mean_psnr_db\": ";
  common::append_json_fixed(out, s.mean_psnr_db());
  out += ",\n";
  out += body;
  if (slice) {
    // The exact merge carriers: the min-PSNR bit pattern and the
    // superaccumulator let merge_reports rebuild the summary without
    // re-rounding.
    out += "  \"shard\": {\"index\": " + std::to_string(slice->index) +
           ", \"count\": " + std::to_string(slice->count) +
           ", \"trial_begin\": " + std::to_string(slice->begin) +
           ", \"trial_end\": " + std::to_string(slice->end) +
           ", \"min_psnr_bits\": \"";
    append_u64_hex(out, std::bit_cast<std::uint64_t>(s.min_psnr_db));
    out += "\", \"psnr_acc\": \"" + s.psnr_acc.to_hex() + "\"},\n";
  }
  out += "  \"trial_list\": [";
  for (std::size_t i = 0; i < n; ++i) {
    out += i ? ",\n    " : "\n    ";
    entry(out, i);
  }
  out += n == 0 ? "],\n" : "\n  ],\n";
  out += "  \"trials_kept\": " + std::to_string(n) + "\n";
  out += "}\n";
  return out;
}

void append_trial(std::string& out, const FaultTrial& t) {
  out += std::string("{\"kind\": \"") + rtl::to_string(t.fault.kind) +
         "\", \"net\": " + std::to_string(t.fault.net) + ", \"net_name\": \"" +
         t.net_name + "\", \"cycle\": " + std::to_string(t.fault.cycle) +
         ", \"outcome\": \"" + to_string(t.outcome) +
         "\", \"max_abs_error\": " + std::to_string(t.max_abs_error) +
         ", \"psnr_db\": ";
  common::append_json_fixed(out, t.psnr_db);
  out += "}";
}

/// The decimal after `"key": ` in `line`.
std::uint64_t scan_u64(std::string_view line, std::string_view key,
                       const char* what) {
  const std::string needle = "\"" + std::string(key) + "\": ";
  const std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) {
    throw std::runtime_error(std::string("merge_reports: missing ") + what);
  }
  const std::size_t start = pos + needle.size();
  const std::size_t end = line.find_first_not_of("0123456789", start);
  return parse_u64(std::string(line.substr(start, end - start)), what,
                   std::numeric_limits<std::uint64_t>::max(), kMerge);
}

/// The string after `"key": "` in `line`.
std::string scan_string(std::string_view line, std::string_view key,
                        const char* what) {
  const std::string needle = "\"" + std::string(key) + "\": \"";
  const std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) {
    throw std::runtime_error(std::string("merge_reports: missing ") + what);
  }
  const std::size_t start = pos + needle.size();
  const std::size_t end = line.find('"', start);
  if (end == std::string_view::npos) {
    throw std::runtime_error(std::string("merge_reports: unterminated ") +
                             what);
  }
  return std::string(line.substr(start, end - start));
}

/// One report read back at the lines write_report prints: the static text
/// around the summary lines, the summary and shard slice, and the trial
/// objects -- the text parts as views into the report.
struct ReportDoc {
  std::string_view head;
  CampaignSummary summary;
  std::string_view body;
  std::optional<ShardSlice> slice;
  std::vector<std::string_view> entries;
};

ReportDoc parse_report(std::string_view text) {
  ReportDoc doc;
  CampaignSummary& s = doc.summary;
  std::size_t at = 0;   // offset of the line next() returned last
  std::size_t pos = 0;  // offset of the line after it
  // The next line, without its newline; throws once the text runs out.
  const auto next = [&] {
    if (pos >= text.size()) {
      throw std::runtime_error(
          "merge_reports: input is not a campaign report (truncated)");
    }
    const std::size_t nl = std::min(text.find('\n', pos), text.size());
    at = pos;
    pos = std::min(nl + 1, text.size());
    return text.substr(at, nl - at);
  };
  std::string_view line = next();
  while (!line.starts_with("  \"trials\": ")) line = next();
  doc.head = text.substr(0, at);
  s.trials_run = scan_u64(line, "trials", "trials");
  line = next();
  s.masked = scan_u64(line, "masked", "outcomes.masked");
  s.detected = scan_u64(line, "detected", "outcomes.detected");
  s.sdc = scan_u64(line, "sdc", "outcomes.sdc");
  (void)next();  // sdc_rate
  s.corrupted = scan_u64(next(), "corrupted_trials", "corrupted_trials");
  (void)next();  // min_psnr_db
  (void)next();  // mean_psnr_db
  const std::size_t body_begin = pos;
  line = next();
  while (!line.starts_with("  \"shard\": ") &&
         !line.starts_with("  \"trial_list\": [")) {
    line = next();
  }
  doc.body = text.substr(body_begin, at - body_begin);
  if (line.starts_with("  \"shard\": ")) {
    ShardSlice& slice = doc.slice.emplace();
    slice.index = scan_u64(line, "index", "shard.index");
    slice.count = scan_u64(line, "count", "shard.count");
    slice.begin = scan_u64(line, "trial_begin", "shard.trial_begin");
    slice.end = scan_u64(line, "trial_end", "shard.trial_end");
    s.min_psnr_db = std::bit_cast<double>(parse_u64_hex(
        scan_string(line, "min_psnr_bits", "shard.min_psnr_bits"), kMerge));
    s.psnr_acc =
        parse_acc(scan_string(line, "psnr_acc", "shard.psnr_acc"), kMerge);
    line = next();
  }
  if (line != "  \"trial_list\": [],") {
    if (line != "  \"trial_list\": [") {
      throw std::runtime_error("merge_reports: malformed trial_list open");
    }
    for (line = next(); line != "  ],"; line = next()) {
      if (!line.starts_with("    ")) {
        throw std::runtime_error("merge_reports: malformed trial entry");
      }
      line.remove_prefix(4);
      if (line.ends_with(',')) line.remove_suffix(1);
      doc.entries.push_back(line);
    }
  }
  // The lines read past above -- sdc_rate, the PSNR lines, trials_kept and
  // the closing brace -- must be what the writer prints from the numbers
  // read back.  An unsharded report carries no exact PSNR figures to
  // reprint from; it can only pass through merge_reports alone.
  if (doc.slice &&
      write_report(doc.head, s, doc.body, doc.slice, doc.entries.size(),
                   [&](std::string& out, std::size_t i) {
                     out += doc.entries[i];
                   }) != text) {
    throw std::runtime_error(
        "merge_reports: shard report is not what its own numbers print");
  }
  return doc;
}

}  // namespace

std::string to_json(const CampaignResult& r) {
  std::string head = "{\n";
  head += "  \"design\": \"" + r.spec.name + "\",\n";
  head += std::string("  \"harden\": \"") + rtl::to_string(r.harden) + "\",\n";
  head += "  \"seed\": " + std::to_string(r.seed) + ",\n";
  head += "  \"samples\": " + std::to_string(r.samples) + ",\n";
  head += "  \"fault_kinds\": [";
  for (std::size_t i = 0; i < r.kinds.size(); ++i) {
    if (i) head += ", ";
    head += std::string("\"") + rtl::to_string(r.kinds[i]) + "\"";
  }
  head += "],\n";

  std::string body = "  \"baseline\": {\"logic_elements\": " +
                     std::to_string(r.baseline.logic_elements) +
                     ", \"ff_count\": " + std::to_string(r.baseline.ff_count) +
                     ", \"fmax_mhz\": ";
  common::append_json_fixed(body, r.baseline.fmax_mhz);
  body += "},\n";
  body += "  \"hardened\": {\"logic_elements\": " +
          std::to_string(r.hardened.logic_elements) +
          ", \"ff_count\": " + std::to_string(r.hardened.ff_count) +
          ", \"fmax_mhz\": ";
  common::append_json_fixed(body, r.hardened.fmax_mhz);
  body += ", \"protected_ffs\": " +
          std::to_string(r.harden_report.protected_ffs) +
          ", \"added_ffs\": " + std::to_string(r.harden_report.added_ffs) +
          ", \"added_gates\": " + std::to_string(r.harden_report.added_gates) +
          ", \"parity_groups\": " +
          std::to_string(r.harden_report.parity_groups) + "},\n";
  body += "  \"overhead\": {\"le_ratio\": ";
  common::append_json_fixed(
      body, r.baseline.logic_elements > 0
                ? static_cast<double>(r.hardened.logic_elements) /
                      static_cast<double>(r.baseline.logic_elements)
                : 0.0);
  body += ", \"fmax_ratio\": ";
  common::append_json_fixed(body, r.baseline.fmax_mhz > 0
                                      ? r.hardened.fmax_mhz /
                                            r.baseline.fmax_mhz
                                      : 0.0);
  body += "},\n";
  // Static schedule statistics of the cone restriction (see ConeStats):
  // identical across engines, knobs, and shards by construction.
  body += "  \"cone\": {\"instructions\": " +
          std::to_string(r.cone.instructions) + ", \"mean_span_fraction\": ";
  common::append_json_fixed(body, r.cone.mean_span_fraction);
  body += ", \"schedule_mean_cone_fraction\": ";
  common::append_json_fixed(body, r.cone.schedule_mean_cone_fraction);
  body += ", \"instructions_full\": " +
          std::to_string(r.cone.instructions_full) +
          ", \"instructions_cone\": " +
          std::to_string(r.cone.instructions_cone) + "},\n";

  std::optional<ShardSlice> slice;
  if (r.shard_count > 1) {
    slice = ShardSlice{r.shard_index, r.shard_count, r.trial_begin,
                       r.trial_end};
  }
  return write_report(head, r, body, slice, r.trials.size(),
                      [&](std::string& out, std::size_t i) {
                        append_trial(out, r.trials[i]);
                      });
}

std::string merge_reports(const std::vector<std::string>& reports) {
  if (reports.empty()) {
    throw std::runtime_error("merge_reports: no reports given");
  }
  std::vector<ReportDoc> docs;
  docs.reserve(reports.size());
  for (const std::string& r : reports) docs.push_back(parse_report(r));

  // A lone unsharded report (no shard object) is already final.
  if (docs.size() == 1 && !docs[0].slice) return reports[0];

  for (const ReportDoc& d : docs) {
    if (!d.slice) {
      throw std::runtime_error(
          "merge_reports: mixing sharded and unsharded reports");
    }
    if (d.slice->count != docs.size()) {
      throw std::runtime_error(
          "merge_reports: incomplete shard set (count mismatch)");
    }
  }
  std::vector<const ReportDoc*> order(docs.size());
  for (const ReportDoc& d : docs) {
    if (d.slice->index >= docs.size()) {
      throw std::runtime_error("merge_reports: shard index out of range");
    }
    if (order[d.slice->index] != nullptr) {
      throw std::runtime_error("merge_reports: duplicate shard index");
    }
    order[d.slice->index] = &d;
  }
  std::uint64_t expect = 0;
  for (const ReportDoc* d : order) {
    if (d->slice->begin != expect || d->slice->end < d->slice->begin) {
      throw std::runtime_error(
          "merge_reports: shard trial ranges are not contiguous");
    }
    if (d->slice->end - d->slice->begin != d->summary.trials_run) {
      throw std::runtime_error(
          "merge_reports: shard trial count disagrees with its range");
    }
    expect = d->slice->end;
  }
  // Every static line must agree byte-for-byte: the shards ran the same
  // design, synthesis, cone statistics and schedule.
  for (const ReportDoc& d : docs) {
    if (d.head != docs[0].head || d.body != docs[0].body) {
      throw std::runtime_error(
          "merge_reports: reports disagree on a non-summary line "
          "(different campaigns?)");
    }
  }

  CampaignSummary total;
  std::vector<std::string_view> entries;
  for (const ReportDoc* d : order) {
    total.add(d->summary);
    entries.insert(entries.end(), d->entries.begin(), d->entries.end());
  }
  return write_report(docs[0].head, total, docs[0].body, std::nullopt,
                      entries.size(), [&](std::string& out, std::size_t i) {
                        out += entries[i];
                      });
}

}  // namespace dwt::explore
