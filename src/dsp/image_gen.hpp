// Synthetic still-tone test image generator.  The paper measures PSNR on "a
// tile of Lena"; that image is not redistributable, so we generate a
// deterministic photograph-like scene (smooth illumination gradient, large
// round objects with soft shading, a few sharp edges and mild texture) whose
// pixel-correlation statistics match what the DWT exploits.  DESIGN.md
// documents this substitution.
#pragma once

#include <cstdint>
#include <vector>

#include "dsp/image.hpp"

namespace dwt::dsp {

/// Deterministic "synthetic portrait" test scene, values in [0, 255].
[[nodiscard]] Image make_still_tone_image(std::size_t width,
                                          std::size_t height,
                                          std::uint64_t seed = 2005);

/// The first `samples` pixels of the row-major scan of a `width`-wide
/// make_still_tone_image(seed), each rounded and DC level shifted to the
/// signed 8-bit domain the 1-D cores consume: the stimulus of the
/// explorer's activity workload and the fault campaigns.
[[nodiscard]] std::vector<std::int64_t> still_tone_samples(
    std::size_t samples, std::size_t width, std::uint64_t seed);

/// Uniform-noise image (worst case for transform coding), values in [0,255].
[[nodiscard]] Image make_noise_image(std::size_t width, std::size_t height,
                                     std::uint64_t seed = 1);

/// Horizontal ramp image (best case: perfectly smooth).
[[nodiscard]] Image make_ramp_image(std::size_t width, std::size_t height);

}  // namespace dwt::dsp
