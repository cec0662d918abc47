// Diffs two bench --json record documents (see bench/schema.md) against a
// tolerance, so a committed baseline can gate regressions in CI.
//
//   bench_compare <baseline.json> <fresh.json> [--rel-tol R] [--skip-perf]
//
// Records are matched by (design, metric).  Deterministic metrics --
// instruction counts, reduction ratios, anything not performance-flavored --
// must match exactly; performance metrics (unit "vectors/s" / "trials/s",
// or a metric name containing "throughput" or "speedup") are compared with
// the relative tolerance (default 0.5, wall-clock numbers are noisy), or
// ignored entirely with --skip-perf (for cross-machine comparisons, where
// absolute throughput is meaningless but the deterministic record set still
// pins the optimizer's behavior).  A record present on one side only is an
// error: schema drift must be an explicit baseline update.  A document that
// lists one (design, metric) key twice is malformed (exit 2), since only
// one of its values could be compared.
//
// The parser handles exactly the byte-stable single-record-per-line format
// common::JsonRecordWriter emits; it is not a general JSON reader.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli_args.hpp"

namespace {

namespace cli = dwt::cli;

struct Record {
  double value = 0.0;
  std::string unit;
};

/// (design, metric) -> record, insertion order preserved separately for
/// stable reporting.
struct Document {
  std::map<std::string, Record> records;
  std::vector<std::string> order;
};

/// Extracts the string value of `"key": "..."` from a record line; empty
/// when absent.
std::string string_field(const std::string& line, const char* key) {
  const std::string pat = std::string("\"") + key + "\": \"";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + pat.size();
  std::string out;
  for (std::size_t i = begin; i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      out += line[++i];
    } else if (line[i] == '"') {
      return out;
    } else {
      out += line[i];
    }
  }
  return out;
}

bool number_field(const std::string& line, const char* key, double* out) {
  const std::string pat = std::string("\"") + key + "\": ";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) return false;
  const char* s = line.c_str() + at + pat.size();
  if (std::strncmp(s, "null", 4) == 0) {
    *out = std::nan("");
    return true;
  }
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s;
}

bool load(const char* path, Document* doc) {
  std::string line;
  std::istringstream lines(cli::read_file(path));
  while (std::getline(lines, line)) {
    if (line.find("\"metric\"") == std::string::npos) continue;
    const std::string design = string_field(line, "design");
    const std::string metric = string_field(line, "metric");
    Record rec;
    rec.unit = string_field(line, "unit");
    double value = 0.0;
    if (design.empty() || metric.empty() ||
        !number_field(line, "value", &value)) {
      std::fprintf(stderr, "bench_compare: malformed record in %s: %s\n",
                   path, line.c_str());
      return false;
    }
    rec.value = value;
    const std::string key = design + " / " + metric;
    if (!doc->records.emplace(key, std::move(rec)).second) {
      std::fprintf(stderr, "bench_compare: repeated record '%s' in %s\n",
                   key.c_str(), path);
      return false;
    }
    doc->order.push_back(key);
  }
  if (doc->records.empty()) {
    std::fprintf(stderr, "bench_compare: no records in %s\n", path);
    return false;
  }
  return true;
}

/// Wall-clock-flavored metrics get the relative tolerance; everything else
/// (instruction counts, reduction ratios) is deterministic.
bool is_perf(const std::string& key, const Record& r) {
  if (r.unit == "vectors/s" || r.unit == "trials/s" || r.unit == "req/s" ||
      r.unit == "us") {
    return true;
  }
  return key.find("throughput") != std::string::npos ||
         key.find("speedup") != std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  double rel_tol = 0.5;
  bool skip_perf = false;
  std::vector<const char*> paths;
  if (!cli::parse_flags(
          argc, argv, 1,
          {cli::value_flag("--rel-tol",
                           [&](const char* v) {
                             return cli::parse_double(v, &rel_tol) &&
                                    rel_tol >= 0.0;
                           }),
           cli::switch_flag("--skip-perf", [&] { skip_perf = true; })},
          &paths)) {
    return 2;
  }
  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_compare <baseline.json> <fresh.json> "
                 "[--rel-tol R] [--skip-perf]\n");
    return 2;
  }

  Document baseline;
  Document fresh;
  try {
    if (!load(paths[0], &baseline) || !load(paths[1], &fresh)) return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }

  int failures = 0;
  std::size_t compared = 0;
  std::size_t perf_checked = 0;
  for (const std::string& key : baseline.order) {
    const Record& want = baseline.records.at(key);
    const auto it = fresh.records.find(key);
    if (it == fresh.records.end()) {
      std::printf("MISSING   %s (in baseline, not in fresh run)\n",
                  key.c_str());
      ++failures;
      continue;
    }
    const Record& got = it->second;
    ++compared;
    if (is_perf(key, want)) {
      if (skip_perf) continue;
      ++perf_checked;
      const bool both_nan = std::isnan(want.value) && std::isnan(got.value);
      if (std::isnan(want.value) != std::isnan(got.value)) {
        // One side null, the other a number: `rel` would be NaN and slip
        // past the tolerance comparison below.
        std::printf("PERF      %s: %.6g -> %.6g (null/number mismatch)\n",
                    key.c_str(), want.value, got.value);
        ++failures;
        continue;
      }
      const double rel =
          want.value != 0.0
              ? std::fabs(got.value - want.value) / std::fabs(want.value)
              : std::fabs(got.value);
      if (!both_nan && rel > rel_tol) {
        std::printf("PERF      %s: %.6g -> %.6g (%.0f%% > %.0f%% tolerance)\n",
                    key.c_str(), want.value, got.value, 100.0 * rel,
                    100.0 * rel_tol);
        ++failures;
      }
    } else {
      const bool both_nan = std::isnan(want.value) && std::isnan(got.value);
      if (!both_nan && got.value != want.value) {
        std::printf("EXACT     %s: %.10g -> %.10g (deterministic metric "
                    "changed)\n",
                    key.c_str(), want.value, got.value);
        ++failures;
      }
    }
  }
  for (const std::string& key : fresh.order) {
    if (baseline.records.find(key) == baseline.records.end()) {
      std::printf("EXTRA     %s (in fresh run, not in baseline)\n",
                  key.c_str());
      ++failures;
    }
  }

  std::printf("%zu records compared (%zu perf%s), %d failure%s\n", compared,
              perf_checked, skip_perf ? ", perf skipped" : "", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
