// Pins the two line kernels and the strided octave sweep to references that
// do not use them: the polyphase trace model for the 1-D fixed-point
// ladder, single-line runs for the lanes of the ladder and of the FIR bank,
// and a naive per-line 2-D transform (the method's one-row window on every
// row then every column, through Image::at) for dwt2d_forward and
// dwt2d_inverse on Images and on int32 planes.  Equality is exact, doubles
// included.  The int32 guard is checked against worst-case inputs run on
// int64.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "dsp/dwt2d.hpp"
#include "dsp/dwt97_lifting_fixed.hpp"
#include "dsp/fir_filter.hpp"
#include "dsp/image_gen.hpp"
#include "dsp/lifting_bound.hpp"
#include "dsp/lifting_ladder.hpp"
#include "support/lines.hpp"

namespace dwt::dsp {
namespace {

TEST(LiftingLadder, FixedMatchesTraceReference) {
  common::Rng rng(41);
  for (const int frac_bits : {4, 6, 8, 10, 12}) {
    const LiftingFixedCoeffs c = LiftingFixedCoeffs::rounded(frac_bits);
    for (std::size_t n = 1; n <= 130; ++n) {
      std::vector<std::int64_t> x(n);
      for (std::int64_t& v : x) v = rng.uniform(-128, 127);
      const LiftingTrace t = lifting97_forward_fixed_trace(x, c);
      const test::Bands<std::int64_t> s =
          test::forward_bands(LiftingLadder(fixed97_steps(c), false), x);
      EXPECT_EQ(s.low, t.low) << "frac_bits=" << frac_bits << " n=" << n;
      EXPECT_EQ(s.high, t.high) << "frac_bits=" << frac_bits << " n=" << n;
    }
  }
}

/// One line of `img`: row `i` (the first `n` columns) or column `i` (the
/// first `n` rows).
struct LineRef {
  Image& img;
  bool column;
  std::size_t i;
  double& operator[](std::size_t k) const {
    return column ? img.at(i, k) : img.at(k, i);
  }
};

void forward_line(Method m, LineRef line, std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t k = 0; k < n; ++k) x[k] = line[k];
  const test::Bands<double> s = test::forward_row(m, x);
  for (std::size_t k = 0; k < s.low.size(); ++k) line[k] = s.low[k];
  for (std::size_t k = 0; k < s.high.size(); ++k) {
    line[s.low.size() + k] = s.high[k];
  }
}

void inverse_line(Method m, LineRef line, std::size_t n) {
  const std::size_t nl = (n + 1) / 2;
  std::vector<double> low(nl), high(n - nl);
  for (std::size_t k = 0; k < nl; ++k) low[k] = line[k];
  for (std::size_t k = nl; k < n; ++k) high[k - nl] = line[k];
  const std::vector<double> x = test::inverse_row(m, low, high);
  for (std::size_t k = 0; k < n; ++k) line[k] = x[k];
}

void reference_forward(Method m, Image& img, int octaves) {
  std::size_t w = img.width(), h = img.height();
  for (int o = 0; o < octaves; ++o) {
    for (std::size_t y = 0; y < h; ++y) forward_line(m, {img, false, y}, w);
    for (std::size_t x = 0; x < w; ++x) forward_line(m, {img, true, x}, h);
    w = (w + 1) / 2;
    h = (h + 1) / 2;
  }
}

void reference_inverse(Method m, Image& img, int octaves) {
  std::vector<std::pair<std::size_t, std::size_t>> sizes;
  std::size_t w = img.width(), h = img.height();
  for (int o = 0; o < octaves; ++o) {
    sizes.emplace_back(w, h);
    w = (w + 1) / 2;
    h = (h + 1) / 2;
  }
  for (auto it = sizes.rbegin(); it != sizes.rend(); ++it) {
    const auto [rw, rh] = *it;
    for (std::size_t x = 0; x < rw; ++x) inverse_line(m, {img, true, x}, rh);
    for (std::size_t y = 0; y < rh; ++y) inverse_line(m, {img, false, y}, rw);
  }
}

/// Runs a kernel over `lanes` lines side by side and one at a time; both
/// must agree, and the padding lanes between strides stay untouched.
/// `make(inverse)` builds the kernel.
template <class Make>
void expect_lanes_match_lines(Make make, const char* table) {
  using T = typename decltype(make(false))::T;
  common::Rng rng(19);
  for (const bool inverse : {false, true}) {
    auto block = make(inverse);
    auto single = make(inverse);
    for (std::size_t n = 1; n <= 130; ++n) {
      for (const std::size_t lanes : {1, 2, 7, 64, 65, 130}) {
        const std::size_t stride = lanes + 3;  // padding lanes stay put
        std::vector<T> x(n * stride);
        for (T& v : x) {
          v = std::is_floating_point_v<T>
                  ? static_cast<T>(255.0 * rng.uniform01() - 128.0)
                  : static_cast<T>(rng.uniform(-128, 127));
        }
        const std::vector<T> before = x;
        std::vector<T> ref = x;
        block(x.data(), n, stride, lanes);
        for (std::size_t j = 0; j < lanes; ++j) {
          single(ref.data() + j, n, stride, 1);
        }
        ASSERT_EQ(x, ref) << table << " inverse=" << inverse << " n=" << n
                          << " lanes=" << lanes;
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = lanes; j < stride; ++j) {
            ASSERT_EQ(x[i * stride + j], before[i * stride + j])
                << table << " padding lane " << j << " n=" << n;
          }
        }
      }
    }
  }
}

TEST(LiftingLadder, LanesMatchSingleLines) {
  const auto ladder = [](const auto& steps, const char* name) {
    expect_lanes_match_lines(
        [&](bool inverse) { return LiftingLadder(steps, inverse); }, name);
  };
  ladder(float97_steps(LiftingCoeffs::daubechies97()), "float");
  const LiftingFixedCoeffs c = LiftingFixedCoeffs::rounded(kDefaultFracBits);
  ladder(fixed97_steps(c), "fixed int64");
  ladder(fixed97_steps<std::int32_t>(c), "fixed int32");
  ladder(hw97_steps(LiftingCoeffs::daubechies97()), "hw int64");
  ladder(hw97_steps<std::int32_t>(LiftingCoeffs::daubechies97()), "hw int32");
  ladder(reversible53_steps(), "5/3 int64");
  ladder(reversible53_steps<std::int32_t>(), "5/3 int32");
}

TEST(FirBank, LanesMatchSingleLines) {
  const auto bank = [](const auto& taps, const char* name) {
    expect_lanes_match_lines(
        [&](bool inverse) { return FirBank(taps, inverse); }, name);
  };
  const Dwt97FirCoeffs& c = Dwt97FirCoeffs::daubechies97();
  const Dwt97FirFixedCoeffs f = Dwt97FirFixedCoeffs::rounded(kDefaultFracBits);
  bank(float97_taps(c), "float");
  bank(fixed97_taps(f), "fixed int64");
  bank(fixed97_taps<std::int32_t>(f), "fixed int32");
  bank(hw97_taps(c), "hw int64");
  bank(hw97_taps<std::int32_t>(c), "hw int32");
}

class OctaveSweep : public ::testing::TestWithParam<Method> {};

/// Integral samples, non-integral ones (the integer methods round them once
/// on entry), and integral ones too large for the int32 guard.
enum class Samples { kIntegral, kFractional, kLarge };

/// The smallest magnitude the int32 guard rejects for a forward transform.
std::int64_t smallest_rejected(Method m, int octaves) {
  const auto fits = [&](std::int64_t r) {
    return fits_int32(lifting_bound(m, kDefaultFracBits, /*inverse=*/false,
                                    octaves, static_cast<double>(r)));
  };
  std::int64_t lo = 0, hi = 1;
  while (fits(hi)) hi *= 2;
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    (fits(mid) ? lo : hi) = mid;
  }
  return hi;
}

/// Whether `m` runs through the FIR bank, which has no int32 guard: its
/// integer methods always transform on int64.
bool is_fir(Method m) {
  return m == Method::kFirFloat || m == Method::kFirFixed ||
         m == Method::kFirHwFloat;
}

TEST_P(OctaveSweep, MatchesPerLineReference) {
  const Method m = GetParam();
  const bool guarded = is_fixed(m) && !is_fir(m);
  struct Case {
    std::size_t w, h;
    int max_octaves;
  };
  const Case cases[] = {{1, 1, 4}, {1, 9, 4},  {9, 1, 4},  {2, 2, 4},
                        {17, 13, 4}, {64, 64, 8}};
  common::Rng rng(7);
  for (const auto& [w, h, max_octaves] : cases) {
    for (int octaves = 1; octaves <= max_octaves; ++octaves) {
      for (const Samples kind :
           {Samples::kIntegral, Samples::kFractional, Samples::kLarge}) {
        // Large samples reach just past what the guard admits, so the plane
        // entry point lifts on int64 and the results still fit int32.
        const std::int64_t large = guarded ? smallest_rejected(m, octaves)
                                           : std::int64_t{1} << 21;
        Image plane(w, h);
        for (double& v : plane.data()) {
          switch (kind) {
            case Samples::kIntegral:
              v = static_cast<double>(rng.uniform(-128, 127));
              break;
            case Samples::kFractional:
              v = 255.0 * rng.uniform01() - 128.0;
              break;
            case Samples::kLarge:
              v = static_cast<double>(rng.uniform(-large, large));
              break;
          }
        }
        if (kind == Samples::kLarge) plane.data()[0] = -static_cast<double>(large);
        const auto where = [&] {
          return ::testing::Message()
                 << w << "x" << h << " octaves=" << octaves
                 << " samples=" << static_cast<int>(kind);
        };
        // The int32 plane entry point, from the same integral samples.
        const bool on_plane = is_fixed(m) && kind != Samples::kFractional;
        Plane<std::int32_t> ints(w, h);
        std::transform(plane.data().begin(), plane.data().end(),
                       ints.data().begin(),
                       [](double v) { return static_cast<std::int32_t>(v); });
        // The plane entry point must lift where its guard says: int32 for
        // what it admits (every small-sample case up to two octaves), int64
        // for the large samples' forward and for the FIR methods.
        const auto lift_plane = [&](bool inverse) {
          const double r = *std::max_element(
              plane.data().begin(), plane.data().end(),
              [](double a, double b) { return std::abs(a) < std::abs(b); });
          const int want =
              guarded && fits_int32(lifting_bound(m, kDefaultFracBits, inverse,
                                                  octaves, std::abs(r)))
                  ? 32
                  : 64;
          const int bits = inverse ? dwt2d_inverse(m, ints.view(), octaves)
                                   : dwt2d_forward(m, ints.view(), octaves);
          EXPECT_EQ(bits, want) << "inverse=" << inverse << " " << where();
          if (kind == Samples::kLarge && !inverse) {
            EXPECT_EQ(bits, 64) << where();
          }
          if (guarded && kind == Samples::kIntegral && octaves <= 2) {
            EXPECT_EQ(bits, 32) << "inverse=" << inverse << " " << where();
          }
        };
        const auto expect_plane = [&](const Image& ref, const char* dir) {
          const std::vector<double> got(ints.data().begin(),
                                        ints.data().end());
          ASSERT_EQ(got, ref.data()) << dir << " plane " << where();
        };

        Image ref = plane;
        if (on_plane) lift_plane(/*inverse=*/false);
        dwt2d_forward(m, plane, octaves);
        reference_forward(m, ref, octaves);
        ASSERT_EQ(plane.data(), ref.data()) << "forward " << where();
        if (on_plane) {
          expect_plane(ref, "forward");
          lift_plane(/*inverse=*/true);
        }
        dwt2d_inverse(m, plane, octaves);
        reference_inverse(m, ref, octaves);
        ASSERT_EQ(plane.data(), ref.data()) << "inverse " << where();
        if (on_plane) expect_plane(ref, "inverse");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LiftingMethods, OctaveSweep,
                         ::testing::Values(Method::kLiftingFloat,
                                           Method::kLiftingFixed,
                                           Method::kLiftingHwFloat,
                                           Method::kReversible53),
                         [](const auto& info) {
                           switch (info.param) {
                             case Method::kLiftingFloat: return "Float";
                             case Method::kLiftingFixed: return "Fixed";
                             case Method::kLiftingHwFloat: return "HwFloat";
                             default: return "Reversible53";
                           }
                         });

INSTANTIATE_TEST_SUITE_P(FirMethods, OctaveSweep,
                         ::testing::Values(Method::kFirFloat, Method::kFirFixed,
                                           Method::kFirHwFloat),
                         [](const auto& info) {
                           switch (info.param) {
                             case Method::kFirFloat: return "Float";
                             case Method::kFirFixed: return "Fixed";
                             default: return "HwFloat";
                           }
                         });

TEST(OctaveSweep, RejectsRegionLargerThanPlane) {
  // A region is a window of its plane: one that overruns the plane on any
  // side throws before a transform runs, and one that fits transforms.
  Image plane(8, 6);
  Plane<std::int32_t> ints(8, 6);
  const std::size_t overruns[][4] = {
      {0, 0, 9, 6}, {0, 0, 8, 7}, {1, 0, 8, 6}, {0, 1, 8, 6}};
  for (const auto& r : overruns) {
    EXPECT_THROW((void)plane.view().window(r[0], r[1], r[2], r[3]),
                 std::out_of_range);
    EXPECT_THROW((void)ints.view().window(r[0], r[1], r[2], r[3]),
                 std::out_of_range);
  }
  for (const Method m : {Method::kLiftingFloat, Method::kLiftingFixed,
                         Method::kReversible53, Method::kFirFloat}) {
    EXPECT_NO_THROW(dwt2d_forward(m, plane.view().window(0, 0, 8, 6), 1));
    EXPECT_NO_THROW(dwt2d_inverse(m, plane.view().window(1, 1, 7, 5), 1));
  }
  EXPECT_NO_THROW((void)dwt2d_forward(Method::kReversible53,
                                      ints.view().window(1, 1, 7, 5), 1));
}

TEST(OctaveSweep, PlaneEntryRejectsFloatMethods) {
  Plane<std::int32_t> plane(4, 4);
  EXPECT_THROW((void)dwt2d_forward(Method::kLiftingFloat, plane.view(), 1),
               std::invalid_argument);
  EXPECT_THROW((void)dwt2d_inverse(Method::kFirFloat, plane.view(), 1),
               std::invalid_argument);
}

/// An int64 sample that notes the largest magnitude any value the ladder
/// forms with it reaches: sums, lifted samples, and (through ProbeMul) each
/// multiplier's integer intermediates and result.
struct Probe {
  std::int64_t v = 0;
  static inline std::int64_t peak = 0;

  static Probe noted(std::int64_t v) {
    peak = std::max(peak, std::abs(v));
    return {v};
  }
  Probe operator-() const { return {-v}; }
  Probe& operator+=(const Probe& o) { return *this = noted(v + o.v); }
  friend Probe operator+(const Probe& a, const Probe& b) {
    return noted(a.v + b.v);
  }
};

template <class T>
void note_intermediate(const FixedMul<T>& m, std::int64_t x) {
  (void)Probe::noted(x * m.raw);
}
template <class T>
void note_intermediate(const FloorMul<T>&, std::int64_t) {}
template <class T>
void note_intermediate(const ShiftMul<T>& m, std::int64_t x) {
  (void)Probe::noted(x + m.bias);
}

template <class Mul>
struct ProbeMul {
  using value_type = Probe;
  Mul m;
  Probe operator()(const Probe& x) const {
    note_intermediate(m, x.v);
    return Probe::noted(m(x.v));
  }
};

/// Runs one pass of `steps` on int64 at the largest magnitude R the guard
/// admits for it, over every sign pattern of +-R for short lines (each
/// stage's L1-maximising pattern among them) and random ones for longer
/// lines.  Every value must stay inside the guard's bound, and the bound
/// must be tight: the largest product reaches nearly all of it.
template <class Mul, std::size_t Steps>
void expect_guard_sound(const StepTable<Mul, Steps>& steps, const char* table) {
  for (const bool inverse : {false, true}) {
    const PassBound b = pass_bound(steps, inverse);
    std::int64_t r = static_cast<std::int64_t>(
        (std::numeric_limits<std::int32_t>::max() / (1.0 + 1e-9) -
         b.peak_bias) /
        b.peak_gain);
    while (!fits_int32(chain_bound(b, 1, static_cast<double>(r)))) --r;
    ASSERT_TRUE(fits_int32(chain_bound(b, 1, static_cast<double>(r))));
    ASSERT_FALSE(fits_int32(chain_bound(b, 1, static_cast<double>(r + 2))));
    const double peak_bound = chain_bound(b, 1, static_cast<double>(r)).peak;
    const double out_bound = b.out_gain * static_cast<double>(r) + b.out_bias;

    StepTable<ProbeMul<Mul>, Steps> probe{};
    for (std::size_t k = 0; k < Steps; ++k) probe.lift[k].m = steps.lift[k];
    probe.low.m = steps.low;
    probe.high.m = steps.high;
    probe.inv_low.m = steps.inv_low;
    probe.inv_high.m = steps.inv_high;
    LiftingLadder ladder(probe, inverse);
    Probe::peak = 0;
    std::int64_t out_peak = 0;
    const auto run = [&](std::vector<Probe> line) {
      ladder(line.data(), line.size());
      for (const Probe& p : line) out_peak = std::max(out_peak, std::abs(p.v));
    };
    for (std::size_t n = 2; n <= 14; ++n) {
      for (std::uint32_t signs = 0; signs < (1u << n); ++signs) {
        std::vector<Probe> line(n);
        for (std::size_t i = 0; i < n; ++i) line[i].v = (signs >> i) & 1 ? r : -r;
        run(line);
      }
    }
    common::Rng rng(23);
    for (const std::size_t n : {15, 38, 39, 40, 64, 129}) {
      for (int trial = 0; trial < 2000; ++trial) {
        std::vector<Probe> line(n);
        for (Probe& p : line) p.v = rng.uniform(0, 1) ? r : -r;
        run(line);
      }
    }
    EXPECT_LE(static_cast<double>(Probe::peak), peak_bound)
        << table << " inverse=" << inverse << " R=" << r;
    EXPECT_LE(Probe::peak, std::numeric_limits<std::int32_t>::max())
        << table << " inverse=" << inverse;
    EXPECT_GE(static_cast<double>(Probe::peak), 0.99 * b.peak_gain * r)
        << table << " inverse=" << inverse << ": bound not tight";
    EXPECT_LE(static_cast<double>(out_peak), out_bound)
        << table << " inverse=" << inverse;
  }
}

TEST(LiftingGuard, WorstCaseSignPatternsStayInsideTheBound) {
  expect_guard_sound(fixed97_steps(LiftingFixedCoeffs::rounded(kDefaultFracBits)),
                     "fixed");
  expect_guard_sound(hw97_steps(LiftingCoeffs::daubechies97()), "hw");
  expect_guard_sound(reversible53_steps(), "5/3");
}

TEST(LiftingGuard, AdmitsInt32ForServedTiles) {
  // dwt97d's default request: level-shifted 8-bit samples, 64-pixel tiles,
  // one or two octaves of the fixed-point 9/7, forward then inverse.  A
  // coefficient or bound change that pushed this onto int64 would silently
  // halve the served path's lanes.
  for (int octaves = 1; octaves <= 2; ++octaves) {
    const ChainBound fwd =
        lifting_bound(Method::kLiftingFixed, kDefaultFracBits, false, octaves,
                      128.0);
    EXPECT_TRUE(fits_int32(fwd)) << octaves;
    EXPECT_TRUE(fits_int32(lifting_bound(Method::kLiftingFixed,
                                         kDefaultFracBits, true, octaves,
                                         fwd.out)))
        << octaves;
    const Image img = make_noise_image(64, 64, 3);
    Plane<std::int32_t> tile(64, 64);
    std::transform(img.data().begin(), img.data().end(), tile.data().begin(),
                   [](double v) { return static_cast<std::int32_t>(v) - 128; });
    EXPECT_EQ(dwt2d_forward(Method::kLiftingFixed, tile.view(), octaves), 32);
    EXPECT_EQ(dwt2d_inverse(Method::kLiftingFixed, tile.view(), octaves), 32);
  }
}

}  // namespace
}  // namespace dwt::dsp
