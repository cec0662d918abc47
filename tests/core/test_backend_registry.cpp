#include "core/registry.hpp"

#include <gtest/gtest.h>

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
  const std::vector<const ExecutionBackend*>& backends = all_backends();
  ASSERT_EQ(backends.size(), 5u);
  const char* expected[] = {"software-float", "software-fixed",
                            "rtl-interpreted", "rtl-compiled", "fpga-mapped"};
  for (std::size_t i = 0; i < backends.size(); ++i) {
    EXPECT_EQ(backends[i]->name(), expected[i]);
    EXPECT_FALSE(backends[i]->description().empty());
    EXPECT_EQ(find_backend(backends[i]->name()), backends[i]);
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
  EXPECT_FALSE(fixed->caps().gate_level);
  EXPECT_TRUE(fixed->caps().bit_exact);
  EXPECT_TRUE(fixed->caps().inverse_2d);

  const ExecutionBackend* flt = find_backend("software-float");
  ASSERT_NE(flt, nullptr);
  EXPECT_FALSE(flt->caps().bit_exact);

  for (const char* gate : {"rtl-interpreted", "rtl-compiled"}) {
    const ExecutionBackend* b = find_backend(gate);
    ASSERT_NE(b, nullptr) << gate;
    EXPECT_TRUE(b->caps().gate_level) << gate;
    EXPECT_TRUE(b->caps().cycle_accurate) << gate;
    EXPECT_TRUE(b->caps().bit_exact) << gate;
    EXPECT_TRUE(b->caps().forward_2d) << gate;
    EXPECT_FALSE(b->caps().inverse_2d) << gate;
  }

  const ExecutionBackend* mapped = find_backend("fpga-mapped");
  ASSERT_NE(mapped, nullptr);
  EXPECT_TRUE(mapped->caps().gate_level);
  EXPECT_FALSE(mapped->caps().forward_2d);
}

// The cross-engine contract the registry exists to enforce: every backend
// whose caps() claim bit-exactness streams the SAME integer coefficients as
// the software fixed-point reference, on every Table 3 design, for even and
// odd stream lengths.  A newly registered engine is held to this matrix
// automatically.  On the resilience campaigns' image-derived stimulus the
// engines that do not claim it (the float model, whose fractional
// coefficients are rounded) must differ from the reference, or the claim
// would test nothing.
TEST(BackendRegistry, BitExactBackendsMatchTheFixedPointReference) {
  const ExecutionBackend* reference = find_backend("software-fixed");
  ASSERT_NE(reference, nullptr);
  common::Rng rng(97);
  std::vector<std::vector<std::int64_t>> inputs;
  for (const std::size_t len : {64u, 33u, 5u}) {
    std::vector<std::int64_t>& x = inputs.emplace_back(len);
    for (std::int64_t& v : x) v = rng.uniform(-128, 127);
  }
  const std::vector<std::int64_t>& still_tone =
      inputs.emplace_back(dsp::still_tone_samples(48, 64, /*seed=*/11));
  for (const std::vector<std::int64_t>& x : inputs) {
    for (const hw::DesignSpec& spec : hw::all_designs()) {
      BackendRequest req;
      req.design = spec.id;
      const hw::StreamResult golden = reference->stream(req, x);
      for (const ExecutionBackend* backend : all_backends()) {
        const bool exact = backend->caps().bit_exact;
        if (!exact && &x != &still_tone) continue;
        const hw::StreamResult got = backend->stream(req, x);
        const std::string what = std::string(backend->name()) + " on " +
                                 spec.name + " len " +
                                 std::to_string(x.size());
        if (exact) {
          EXPECT_EQ(got.low, golden.low) << what;
          EXPECT_EQ(got.high, golden.high) << what;
        } else {
          EXPECT_FALSE(got.low == golden.low && got.high == golden.high)
              << what;
        }
        if (backend->caps().cycle_accurate) {
          EXPECT_GT(got.cycles, 0u) << what;
        } else {
          EXPECT_EQ(got.cycles, 0u) << what;
        }
      }
    }
  }
}

// Only netlist engines build a 2-D session (the figure-4 system on int32
// windows), and every one agrees with the software model; software engines
// report the dsp method the tile pipeline runs in-thread instead.
TEST(BackendRegistry, TwoDimensionalSessionsAgreeWithTheSoftwareModel) {
  const dsp::Plane<std::int32_t> source = dsp::to_int32_plane(
      dsp::make_still_tone_image(33, 21, 7), /*offset=*/128.0);
  dsp::Plane<std::int32_t> reference = source;
  (void)dsp::dwt2d_forward(dsp::Method::kLiftingFixed, reference.view(), 2);
  BackendRequest req;
  req.max_octaves = 2;
  for (const ExecutionBackend* backend : all_backends()) {
    const std::string name(backend->name());
    const std::optional<dsp::Method> method = backend->software_method();
    if (name == "software-fixed" || name == "software-float") {
      ASSERT_TRUE(method.has_value()) << name;
      EXPECT_EQ(*method, name == "software-fixed"
                             ? dsp::Method::kLiftingFixed
                             : dsp::Method::kLiftingFloat);
    } else {
      EXPECT_FALSE(method.has_value()) << name;
    }
    if (method.has_value() || !backend->caps().forward_2d) {
      EXPECT_THROW((void)backend->make_2d_session(req), std::invalid_argument)
          << name;
      continue;
    }
    ASSERT_TRUE(backend->caps().bit_exact) << name;
    hw::Dwt2dSystem system = backend->make_2d_session(req);
    dsp::Plane<std::int32_t> plane = source;
    const hw::Dwt2dRunStats stats = system.transform(plane.view(), 2);
    EXPECT_EQ(plane.data(), reference.data()) << name;
    EXPECT_GT(stats.total_cycles, 0u) << name;
  }
}

TEST(BackendRegistry, UnsupportedEntryPointsThrow) {
  const ExecutionBackend* mapped = find_backend("fpga-mapped");
  ASSERT_NE(mapped, nullptr);
  EXPECT_THROW((void)mapped->make_2d_session(BackendRequest{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dwt::core
