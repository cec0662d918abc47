// Shared byte-stable JSON emission helpers.
//
// Every machine-readable document this repo writes (bench --json files,
// faultcampaign reports) promises byte-identical output for identical model
// state, so reports diff cleanly across revisions.  The formatting rules
// that guarantee was built on -- backslash/quote-only escaping, "%.10g"
// general numbers with an integral fast path, fixed-precision numbers that
// degrade to null for non-finite values -- used to be duplicated between
// bench/bench_json.hpp and the hand-rolled emitter in explore/resilience.
// They live here now; both consumers emit the exact bytes they always did.
#pragma once

#include <string>
#include <vector>

namespace dwt::common {

/// Escapes '"' and '\\' (the only characters our emitters ever need to
/// escape; none of the repo's names or units contain control characters).
[[nodiscard]] std::string json_escape(const std::string& s);

/// General-purpose number formatting: integral values print as integers,
/// everything else as "%.10g", non-finite values as "null".
[[nodiscard]] std::string json_number(double v);

/// Fixed-precision "%.*f" appended to `out`; non-finite values append
/// "null" (JSON has no Infinity/NaN literals).
void append_json_fixed(std::string& out, double v, int digits = 4);

/// Writer for the repo's flat record documents (see bench/schema.md):
///
///   {
///     "bench": "<name>",
///     "records": [
///       {"design": "...", "metric": "...", "value": N, "unit": "..."},
///       ...
///     ]
///   }
///
/// Byte-stable: fixed key order, insertion-ordered records, json_number()
/// formatting.  The bench binaries wrap this in bench::JsonReporter, which
/// adds the `--json <path>` argv convention.
class JsonRecordWriter {
 public:
  explicit JsonRecordWriter(std::string document_name)
      : name_(std::move(document_name)) {}

  void add(const std::string& design, const std::string& metric, double value,
           const std::string& unit) {
    records_.push_back({design, metric, value, unit});
  }

  /// Renders the whole document.
  [[nodiscard]] std::string render() const;

  /// Renders and writes to `path`; returns false (and prints to stderr) when
  /// the file cannot be written.
  [[nodiscard]] bool write_file(const std::string& path) const;

 private:
  struct Record {
    std::string design;
    std::string metric;
    double value;
    std::string unit;
  };

  std::string name_;
  std::vector<Record> records_;
};

}  // namespace dwt::common
