// Shared helpers of perfbench_probe, the benchmark's compiled helper.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "dsp/image.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0);

[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);
void write_file(const std::string& path, const std::vector<std::uint8_t>& b);

/// splitmix64: the benchmark's only random source, so a seed fixes every
/// generated input independently of the library's own generators.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform double in [0, 1).
  double uniform();

 private:
  std::uint64_t state_;
};

/// One request of a workload, read from a case file line:
///   name weight op backend design octaves input.pgm expected.bin
/// `op` is tile|forward|compress, `backend` is `-` for the default path.
struct Case {
  std::string name;
  double weight = 1.0;
  std::string op;
  std::string backend;
  int design = 2;
  int octaves = 2;
  std::string input_path;
  std::string expected_path;
  std::vector<std::uint8_t> pgm;       ///< request payload (PGM bytes)
  std::vector<std::uint8_t> expected;  ///< golden response payload
  std::uint64_t pixels = 0;
};

/// Parses a case file and loads every input and golden answer.
[[nodiscard]] std::vector<Case> load_cases(const std::string& path);

/// Width x height of a P5 document written by the generator.
void pgm_size(const std::vector<std::uint8_t>& pgm, std::size_t* w,
              std::size_t* h);

/// A forward plane as the daemon's `forward` answer carries it: each
/// coefficient rounded to i32, little endian.
[[nodiscard]] std::vector<std::uint8_t> pack_i32(const dwt::dsp::Image& plane);

/// Value of `--flag` in argv, or `fallback`.
[[nodiscard]] std::string arg_value(int argc, char** argv, const char* flag,
                                    const std::string& fallback);

int cmd_load(int argc, char** argv);
int cmd_trace(int argc, char** argv);

}  // namespace perfbench
