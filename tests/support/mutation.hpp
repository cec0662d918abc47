// A seeded mutation driver for hostile-input tests: the host toolchain has
// no libFuzzer, so each parser test runs a fixed number of deterministic
// mutations of a small seed corpus through the parser and counts the inputs
// it did not handle cleanly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace dwt::test {

/// Runs `iterations` mutations of `seeds` (chosen with an Rng seeded by
/// `rng_seed`) through check(bytes), which returns whether the input was
/// handled cleanly.  The mutations cycle through four kinds: 1-8 bit flips,
/// truncation, a splice of a prefix of one seed and a suffix of another, and
/// one of the first `header_bytes` bytes set to 0x00, 0xFF or a random value.
/// The first three unclean inputs are reported as test failures; the return
/// value counts them all.
template <class Check>
std::size_t count_unclean_mutations(
    const std::vector<std::vector<std::uint8_t>>& seeds,
    std::uint64_t rng_seed, int iterations, std::size_t header_bytes,
    Check check) {
  common::Rng rng(rng_seed);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(n) - 1));
  };
  std::size_t unclean = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    std::vector<std::uint8_t> m = seeds[pick(seeds.size())];
    switch (iter % 4) {
      case 0:  // 1-8 bit flips
        for (std::size_t f = pick(8) + 1; f > 0; --f) {
          m[pick(m.size())] ^= static_cast<std::uint8_t>(1u << pick(8));
        }
        break;
      case 1:  // truncation
        m.resize(pick(m.size()));
        break;
      case 2: {  // splice: a prefix of this seed, a suffix of another
        const std::vector<std::uint8_t>& other = seeds[pick(seeds.size())];
        m.resize(pick(m.size() + 1));
        m.insert(m.end(), other.begin() + static_cast<std::ptrdiff_t>(
                                              pick(other.size() + 1)),
                 other.end());
        break;
      }
      default: {  // one header byte at an extreme or random value
        const std::uint8_t values[] = {
            0x00, 0xFF, static_cast<std::uint8_t>(rng.next_u64())};
        m[pick(std::min(m.size(), header_bytes))] = values[pick(3)];
        break;
      }
    }
    if (!check(m) && ++unclean <= 3) {
      ADD_FAILURE() << "mutation " << iter << " (" << m.size()
                    << " bytes) was not handled cleanly";
    }
  }
  return unclean;
}

}  // namespace dwt::test
