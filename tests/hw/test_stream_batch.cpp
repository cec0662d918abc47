// The compiled batched streaming surface against the interpreted
// run_stream reference (run_stream_batch: per-lane fault trials over one
// shared stimulus), and the one cycle contract every harness shares.
#include "hw/stream_runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "core/artifact_cache.hpp"
#include "dsp/image_gen.hpp"
#include "hw/designs.hpp"
#include "rtl/compiled/tape.hpp"

namespace dwt::hw {
namespace {

std::vector<std::int64_t> test_signal(std::size_t n) {
  const dsp::Image img = dsp::make_still_tone_image(n, 1, 11);
  std::vector<std::int64_t> x;
  x.reserve(n);
  for (const double v : img.data()) {
    x.push_back(static_cast<std::int64_t>(std::llround(v)) - 128);
  }
  return x;
}

TEST(StreamBatch, FaultFreeLanesMatchInterpretedStream) {
  const BuiltDatapath dp = build_design(DesignId::kDesign3);
  const auto x = test_signal(32);
  rtl::Simulator ref(dp.netlist);
  const StreamResult golden = run_stream(dp, ref, x);

  rtl::compiled::WideBatchSession<1> session(
      rtl::compiled::compile(dp.netlist));
  const auto lanes = run_stream_batch(dp, session, x, /*lanes=*/8);
  ASSERT_EQ(lanes.size(), 8u);
  for (const StreamResult& lane : lanes) {
    EXPECT_EQ(lane.low, golden.low);
    EXPECT_EQ(lane.high, golden.high);
    EXPECT_EQ(lane.cycles, golden.cycles);
  }
}

TEST(StreamBatch, ArmedLaneDivergesOthersStayGolden) {
  const BuiltDatapath dp = build_design(DesignId::kDesign2);
  const auto x = test_signal(32);
  rtl::Simulator ref(dp.netlist);
  const StreamResult golden = run_stream(dp, ref, x);

  // Stuck-at-0 on the even input's LSB for the whole stream on lane 3 only:
  // every odd even-sample is perturbed, so the lane's transform diverges.
  rtl::Fault f;
  f.kind = rtl::FaultKind::kStuckAt0;
  f.net = dp.in_even.bits[0];
  f.cycle = 0;
  rtl::compiled::WideBatchSession<1> session(
      rtl::compiled::compile(dp.netlist));
  session.arm(3, f);
  const auto lanes = run_stream_batch(dp, session, x, /*lanes=*/5);
  EXPECT_EQ(lanes[0].low, golden.low);
  EXPECT_EQ(lanes[1].low, golden.low);
  EXPECT_EQ(lanes[2].low, golden.low);
  EXPECT_EQ(lanes[4].low, golden.low);
  EXPECT_NE(lanes[3].low, golden.low);  // the faulty lane
}

// Every harness runs the one pair schedule, so each returns the same
// coefficient window and the cycle count campaigns draw injection cycles
// from (stream_cycle_count): ceil(n/2) pairs + 2*kGuardPairs + latency.
TEST(StreamSchedule, EveryHarnessSharesOneCycleContract) {
  core::ArtifactCache& cache = core::ArtifactCache::instance();
  const BuiltDatapath53 dp53 = build_lifting53_datapath({});
  const BuiltInverseDatapath inv = build_inverse_lifting_datapath({});
  for (const DesignSpec& spec : all_designs()) {
    const DatapathConfig cfg = design_config(spec.id);
    const BuiltDatapath& dp = cache.design(cfg)->dp;
    const std::shared_ptr<const core::MappedDesign> md = cache.mapped(cfg);
    const auto tape = rtl::compiled::compile(dp.netlist);
    for (const std::size_t n : {1u, 2u, 3u, 5u, 16u, 33u}) {
      const std::string what = spec.name + " n=" + std::to_string(n);
      const auto x = test_signal(n);
      const std::uint64_t cycles = stream_cycle_count(dp, n);
      EXPECT_EQ(cycles, (n + 1) / 2 + 2 * kGuardPairs +
                            static_cast<std::size_t>(dp.info.latency))
          << what;

      rtl::Simulator sim(dp.netlist);
      const StreamResult golden = run_stream(dp, sim, x);
      rtl::Simulator inj_sim(dp.netlist);
      rtl::FaultInjector inj(dp.netlist, inj_sim);
      fpga::MappedActivitySim mapped_sim(md->mapped);
      rtl::compiled::WideBatchSession<1> narrow(tape);
      rtl::compiled::WideBatchSession<4> wide(tape);
      std::vector<StreamResult> got{
          golden, run_stream_faulty(dp, inj, x),
          run_stream_mapped(md->dp, mapped_sim, x)};
      for (StreamResult& r : run_stream_batch(dp, narrow, x, 3)) {
        got.push_back(std::move(r));
      }
      for (StreamResult& r : run_stream_batch(dp, wide, x, 256)) {
        got.push_back(std::move(r));
      }
      EXPECT_EQ(golden.low.size(), (n + 1) / 2) << what;
      EXPECT_EQ(golden.high.size(), n / 2) << what;
      for (const StreamResult& r : got) {
        EXPECT_EQ(r.low, golden.low) << what;
        EXPECT_EQ(r.high, golden.high) << what;
        EXPECT_EQ(r.cycles, cycles) << what;
      }

      rtl::Simulator sim53(dp53.netlist);
      EXPECT_EQ(run_stream53(dp53, sim53, x).cycles,
                (n + 1) / 2 + 2 * kGuardPairs +
                    static_cast<std::size_t>(dp53.latency))
          << what;
      rtl::Simulator inv_sim(inv.netlist);
      EXPECT_EQ(run_stream_inverse(inv, inv_sim, golden.low, golden.high).cycles,
                (n + 1) / 2 + 2 * kGuardPairs +
                    static_cast<std::size_t>(inv.latency))
          << what;
    }
  }
}

}  // namespace
}  // namespace dwt::hw
