#include "dsp/image_gen.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/rng.hpp"

namespace dwt::dsp {
namespace {

double soft_disk(double x, double y, double cx, double cy, double r,
                 double softness) {
  const double d = std::sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy));
  // 1 inside, 0 outside, smooth roll-off of width `softness`.
  return 0.5 * (1.0 - std::tanh((d - r) / softness));
}

}  // namespace

Image make_still_tone_image(std::size_t width, std::size_t height,
                            std::uint64_t seed) {
  Image img(width, height);
  common::Rng rng(seed);
  // Low-frequency texture field: a small number of random smooth cosines.
  struct Wave {
    double fx, fy, phase, amp;
  };
  std::array<Wave, 6> waves{};
  for (Wave& w : waves) {
    w.fx = rng.uniform01() * 6.0 + 0.5;
    w.fy = rng.uniform01() * 6.0 + 0.5;
    w.phase = rng.uniform01() * 6.283185307179586;
    w.amp = rng.uniform01() * 6.0 + 2.0;
  }
  const double w = static_cast<double>(width);
  const double h = static_cast<double>(height);
  for (std::size_t yi = 0; yi < height; ++yi) {
    for (std::size_t xi = 0; xi < width; ++xi) {
      const double x = static_cast<double>(xi) / w;
      const double y = static_cast<double>(yi) / h;
      // Global illumination gradient (top-left bright).
      double v = 170.0 - 60.0 * x - 40.0 * y;
      // Large shaded objects ("face", "hat brim", "shoulder").
      v += 55.0 * soft_disk(x, y, 0.55, 0.40, 0.22, 0.06) * (1.0 - 0.5 * y);
      v -= 70.0 * soft_disk(x, y, 0.30, 0.18, 0.16, 0.03);
      v += 35.0 * soft_disk(x, y, 0.70, 0.80, 0.30, 0.10);
      // A sharp vertical edge (door frame) and a diagonal edge.
      if (x > 0.85) v -= 60.0;
      if (y > 0.9 - 0.2 * x) v += 25.0;
      // Mild band-limited texture.
      for (const Wave& wav : waves) {
        v += wav.amp *
             std::cos(6.283185307179586 * (wav.fx * x + wav.fy * y) + wav.phase);
      }
      // Fine deterministic grain (sensor noise) -- small so the image stays
      // dominated by correlated content.
      v += (rng.uniform01() - 0.5) * 4.0;
      img.at(xi, yi) = std::clamp(v, 0.0, 255.0);
    }
  }
  return img;
}

std::vector<std::int64_t> still_tone_samples(std::size_t samples,
                                             std::size_t width,
                                             std::uint64_t seed) {
  const Image img =
      make_still_tone_image(width, (samples + width - 1) / width, seed);
  std::vector<std::int64_t> out(samples);
  std::transform(img.data().begin(),
                 img.data().begin() + static_cast<std::ptrdiff_t>(samples),
                 out.begin(),
                 [](double v) { return std::int64_t{round_to_int32(v)} - 128; });
  return out;
}

Image make_noise_image(std::size_t width, std::size_t height,
                       std::uint64_t seed) {
  Image img(width, height);
  common::Rng rng(seed);
  for (double& v : img.data()) {
    v = static_cast<double>(rng.uniform(0, 255));
  }
  return img;
}

Image make_ramp_image(std::size_t width, std::size_t height) {
  Image img(width, height);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      img.at(x, y) =
          255.0 * static_cast<double>(x) / static_cast<double>(width - 1);
    }
  }
  return img;
}

}  // namespace dwt::dsp
