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
#include "explore/tradeoffs.hpp"
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
// automatically.
TEST(BackendRegistry, BitExactBackendsMatchTheFixedPointReference) {
  const ExecutionBackend* reference = find_backend("software-fixed");
  ASSERT_NE(reference, nullptr);
  common::Rng rng(97);
  for (const std::size_t len : {64u, 33u, 5u}) {
    std::vector<std::int64_t> x(len);
    for (std::int64_t& v : x) v = rng.uniform(-128, 127);
    for (const hw::DesignSpec& spec : hw::all_designs()) {
      BackendRequest req;
      req.design = spec.id;
      const hw::StreamResult golden = reference->stream(req, x);
      for (const ExecutionBackend* backend : all_backends()) {
        if (!backend->caps().bit_exact) continue;
        const hw::StreamResult got = backend->stream(req, x);
        const std::string what = std::string(backend->name()) + " on " +
                                 spec.name + " len " + std::to_string(len);
        EXPECT_EQ(got.low, golden.low) << what;
        EXPECT_EQ(got.high, golden.high) << what;
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

// profile_backends drives the whole registry through the tradeoffs layer;
// its matrix is what EXPERIMENTS.md publishes, so pin the semantics: every
// bit-exact engine matches the reference, the float model does not.
TEST(BackendRegistry, ProfileBackendsPinsTheEquivalenceMatrix) {
  const std::vector<explore::BackendProfile> profiles =
      explore::profile_backends(/*samples=*/48, /*seed=*/11);
  ASSERT_EQ(profiles.size(), all_backends().size());
  for (const explore::BackendProfile& p : profiles) {
    ASSERT_EQ(p.stream_cycles.size(), 5u) << p.backend;
    EXPECT_EQ(p.matches_reference, p.bit_exact) << p.backend;
    for (const std::uint64_t cycles : p.stream_cycles) {
      if (p.cycle_accurate) {
        EXPECT_GT(cycles, 0u) << p.backend;
      } else {
        EXPECT_EQ(cycles, 0u) << p.backend;
      }
    }
  }
}

}  // namespace
}  // namespace dwt::core
