#include "core/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dsp/dwt2d.hpp"
#include "dsp/image.hpp"
#include "dsp/image_gen.hpp"
#include "hw/designs.hpp"

namespace dwt::core {
namespace {

TEST(BackendRegistry, FiveEnginesInPresentationOrder) {
  const std::span<const ExecutionBackend> backends = all_backends();
  ASSERT_EQ(backends.size(), 5u);
  const char* expected[] = {"software-float", "software-fixed",
                            "rtl-interpreted", "rtl-compiled", "fpga-mapped"};
  for (std::size_t i = 0; i < backends.size(); ++i) {
    EXPECT_EQ(backends[i].name(), expected[i]);
    EXPECT_FALSE(backends[i].description().empty());
    EXPECT_EQ(find_backend(backends[i].name()), &backends[i]);
  }
  EXPECT_EQ(find_backend("no-such-engine"), nullptr);
  EXPECT_EQ(find_backend(""), nullptr);
  EXPECT_EQ(backend_names(), std::string("software-float|software-fixed|"
                                         "rtl-interpreted|rtl-compiled|"
                                         "fpga-mapped"));
}

TEST(BackendRegistry, CapabilityFlagsMatchTheEngineContracts) {
  const ExecutionBackend* fixed = find_backend("software-fixed");
  ASSERT_NE(fixed, nullptr);
  EXPECT_EQ(fixed->software_method(), dsp::Method::kLiftingFixed);
  EXPECT_FALSE(fixed->caps().gate_level);
  EXPECT_TRUE(fixed->caps().bit_exact);
  EXPECT_TRUE(fixed->caps().inverse_2d);

  const ExecutionBackend* flt = find_backend("software-float");
  ASSERT_NE(flt, nullptr);
  EXPECT_EQ(flt->software_method(), dsp::Method::kLiftingFloat);
  EXPECT_FALSE(flt->caps().gate_level);
  EXPECT_FALSE(flt->caps().bit_exact);
  EXPECT_TRUE(flt->caps().inverse_2d);

  for (const char* gate : {"rtl-interpreted", "rtl-compiled", "fpga-mapped"}) {
    const ExecutionBackend* b = find_backend(gate);
    ASSERT_NE(b, nullptr) << gate;
    EXPECT_FALSE(b->software_method().has_value()) << gate;
    EXPECT_TRUE(b->caps().gate_level) << gate;
    EXPECT_TRUE(b->caps().bit_exact) << gate;
    EXPECT_FALSE(b->caps().inverse_2d) << gate;
  }
}

/// A 1-D transform through an engine's own entry point: `x` as a one-row
/// window, lifted in-thread by a software engine's dsp method (the float
/// model's coefficients rounded to integers) or by a netlist engine's 2-D
/// session.
struct RowResult {
  std::vector<std::int64_t> row;  ///< ceil(n/2) low then floor(n/2) high
  std::uint64_t cycles = 0;       ///< clock cycles the session counted
};

RowResult one_row(const ExecutionBackend& backend, const BackendRequest& req,
                  const std::vector<std::int32_t>& x) {
  RowResult r;
  const std::optional<dsp::Method> method = backend.software_method();
  if (method && !dsp::is_fixed(*method)) {
    dsp::Image row(x.size(), 1);
    std::copy(x.begin(), x.end(), row.data().begin());
    dsp::dwt2d_forward(*method, row, 1);
    for (const double v : row.data()) r.row.push_back(std::llround(v));
    return r;
  }
  dsp::Plane<std::int32_t> row(x.size(), 1);
  std::copy(x.begin(), x.end(), row.data().begin());
  if (method) {
    (void)dsp::dwt2d_forward(*method, row.view(), 1);
  } else {
    r.cycles =
        backend.make_2d_session(req).transform(row.view(), 1).total_cycles;
  }
  r.row.assign(row.data().begin(), row.data().end());
  return r;
}

// The cross-engine contract the registry exists to enforce: every backend
// whose caps() claim bit-exactness lifts a one-row window to the SAME
// integer coefficients as the software fixed-point reference, on every
// Table 3 design, for even and odd lengths.  A newly registered engine is
// held to this matrix automatically.  On the resilience campaigns'
// image-derived stimulus the engines that do not claim it (the float
// model, whose fractional coefficients are rounded) must differ from the
// reference, or the claim would test nothing.
TEST(BackendRegistry, BitExactBackendsMatchTheFixedPointReference) {
  const ExecutionBackend* reference = find_backend("software-fixed");
  ASSERT_NE(reference, nullptr);
  common::Rng rng(97);
  std::vector<std::vector<std::int32_t>> inputs;
  for (const std::size_t len : {64u, 33u, 5u}) {
    std::vector<std::int32_t>& x = inputs.emplace_back(len);
    for (std::int32_t& v : x) {
      v = static_cast<std::int32_t>(rng.uniform(-128, 127));
    }
  }
  const std::vector<std::int64_t> tone =
      dsp::still_tone_samples(48, 64, /*seed=*/11);
  const std::vector<std::int32_t>& still_tone =
      inputs.emplace_back(tone.begin(), tone.end());
  for (const std::vector<std::int32_t>& x : inputs) {
    for (const hw::DesignSpec& spec : hw::all_designs()) {
      BackendRequest req;
      req.design = spec.id;
      const RowResult golden = one_row(*reference, req, x);
      for (const ExecutionBackend& backend : all_backends()) {
        const bool exact = backend.caps().bit_exact;
        if (!exact && &x != &still_tone) continue;
        const RowResult got = one_row(backend, req, x);
        const std::string what = std::string(backend.name()) + " on " +
                                 spec.name + " len " +
                                 std::to_string(x.size());
        if (exact) {
          EXPECT_EQ(got.row, golden.row) << what;
        } else {
          EXPECT_NE(got.row, golden.row) << what;
        }
        if (backend.caps().gate_level) {
          EXPECT_GT(got.cycles, 0u) << what;
        } else {
          EXPECT_EQ(got.cycles, 0u) << what;
        }
      }
    }
  }
}

// Every netlist engine's 2-D session (the figure-4 system on int32 windows)
// agrees with the software model on every Table 3 design.
TEST(BackendRegistry, TwoDimensionalSessionsAgreeWithTheSoftwareModel) {
  const dsp::Plane<std::int32_t> source = dsp::to_int32_plane(
      dsp::make_still_tone_image(33, 21, 7), /*offset=*/128.0);
  dsp::Plane<std::int32_t> reference = source;
  (void)dsp::dwt2d_forward(dsp::Method::kLiftingFixed, reference.view(), 2);
  for (const hw::DesignSpec& spec : hw::all_designs()) {
    BackendRequest req;
    req.design = spec.id;
    req.max_octaves = 2;
    for (const ExecutionBackend& backend : all_backends()) {
      if (backend.software_method().has_value()) continue;
      const std::string what =
          std::string(backend.name()) + " on " + spec.name;
      ASSERT_TRUE(backend.caps().bit_exact) << what;
      hw::Dwt2dSystem system = backend.make_2d_session(req);
      dsp::Plane<std::int32_t> plane = source;
      const hw::Dwt2dRunStats stats = system.transform(plane.view(), 2);
      EXPECT_EQ(plane.data(), reference.data()) << what;
      EXPECT_GT(stats.total_cycles, 0u) << what;
    }
  }
}

// Software engines run in-thread through their dsp method and build no 2-D
// session.
TEST(BackendRegistry, UnsupportedEntryPointsThrow) {
  for (const char* name : {"software-float", "software-fixed"}) {
    const ExecutionBackend* b = find_backend(name);
    ASSERT_NE(b, nullptr) << name;
    EXPECT_THROW((void)b->make_2d_session(BackendRequest{}),
                 std::invalid_argument)
        << name;
  }
}

}  // namespace
}  // namespace dwt::core
