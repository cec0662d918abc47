#include "core/artifact_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "hw/designs.hpp"

namespace dwt::core {
namespace {

hw::DatapathConfig config_for(hw::DesignId id) {
  return hw::design_config(id);
}

// The headline concurrency property: any number of racing requesters for
// one key observe the SAME artifact pointer, and the build ran exactly
// once.  Everything downstream (tile workers sharing a tape, campaign
// threads sharing a netlist) relies on this.
TEST(ArtifactCache, SamePointerAcrossThreadsNeverRebuilds) {
  ArtifactCache cache;
  const hw::DatapathConfig cfg = config_for(hw::DesignId::kDesign3);
  constexpr unsigned kThreads = 8;
  std::vector<std::shared_ptr<const CachedDesign>> seen(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] { seen[t] = cache.design(cfg); });
  }
  for (auto& th : pool) th.join();
  for (unsigned t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[0].get(), seen[t].get()) << "thread " << t;
  }
  const CacheStats st = cache.stats();
  EXPECT_EQ(st.design_builds, 1u);
  EXPECT_EQ(st.design_hits, kThreads - 1);
}

TEST(ArtifactCache, TapeAndMappedAreMemoized) {
  ArtifactCache cache;
  const hw::DatapathConfig cfg = config_for(hw::DesignId::kDesign2);
  const auto tape1 = cache.tape(cfg);
  const auto tape2 = cache.tape(cfg);
  EXPECT_EQ(tape1.get(), tape2.get());
  const auto mapped1 = cache.mapped(cfg);
  const auto mapped2 = cache.mapped(cfg);
  EXPECT_EQ(mapped1.get(), mapped2.get());
  const CacheStats st = cache.stats();
  EXPECT_EQ(st.tape_builds, 1u);
  EXPECT_EQ(st.tape_hits, 1u);
  EXPECT_EQ(st.mapped_builds, 1u);
  EXPECT_EQ(st.mapped_hits, 1u);
  // The mapping must reference the cached artifact's own netlist, not a
  // dangling temporary.
  EXPECT_EQ(mapped1->mapped.source, &mapped1->dp.netlist);
}

// Changing any one DatapathConfig field, or the hardening style, gets its
// own design artifact: no two of these configurations share a cache entry.
TEST(ArtifactCache, DistinctConfigurationsGetDistinctKeys) {
  const hw::DatapathConfig base = config_for(hw::DesignId::kDesign2);
  const std::vector<std::pair<const char*, void (*)(hw::DatapathConfig&)>>
      changes = {
          {"multiplier",
           [](hw::DatapathConfig& c) {
             c.multiplier = hw::MultiplierStyle::kGenericArray;
           }},
          {"adder_style",
           [](hw::DatapathConfig& c) {
             c.adder_style = rtl::AdderArch::kRippleGates;
           }},
          {"pipelined_operators",
           [](hw::DatapathConfig& c) { c.pipelined_operators = true; }},
          {"pipeline_granularity",
           [](hw::DatapathConfig& c) { c.pipeline_granularity = 2; }},
          {"input_bits", [](hw::DatapathConfig& c) { c.input_bits = 9; }},
          {"frac_bits", [](hw::DatapathConfig& c) { c.frac_bits = 9; }},
          {"recoding",
           [](hw::DatapathConfig& c) { c.recoding = rtl::Recoding::kCsd; }},
          {"sum_structure",
           [](hw::DatapathConfig& c) {
             c.sum_structure = rtl::SumStructure::kTree;
           }},
          {"paper_widths",
           [](hw::DatapathConfig& c) { c.paper_widths = false; }},
      };
  ArtifactCache cache;
  const auto plain = cache.design(base);
  std::vector<const CachedDesign*> seen = {plain.get()};
  for (const auto& [field, change] : changes) {
    hw::DatapathConfig cfg = base;
    change(cfg);
    ASSERT_NE(cfg, base) << field;
    const auto artifact = cache.design(cfg);
    EXPECT_EQ(std::count(seen.begin(), seen.end(), artifact.get()), 0)
        << field;
    seen.push_back(artifact.get());
    EXPECT_EQ(artifact->dp.config, cfg) << field;
  }
  const auto tmr = cache.design(base, rtl::HardeningStyle::kTmr);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), tmr.get()), 0);
  EXPECT_EQ(cache.stats().design_builds, changes.size() + 2);
  EXPECT_EQ(cache.stats().design_hits, 1u);  // the TMR build's base design
}

// Optimization levels are part of the tape key: each level is its own
// cached artifact (a kFull tape would be wrong for a fault campaign, a raw
// tape wastes streaming throughput), the raw level keeps the legacy key,
// and re-requests at any level hit instead of rebuilding.
TEST(ArtifactCache, OptimizedTapesAreKeyedPerLevel) {
  ArtifactCache cache;
  const hw::DatapathConfig cfg = config_for(hw::DesignId::kDesign2);
  const auto raw = cache.tape(cfg);
  const auto safe =
      cache.tape(cfg, rtl::HardeningStyle::kNone, rtl::compiled::OptLevel::kSafe);
  const auto full =
      cache.tape(cfg, rtl::HardeningStyle::kNone, rtl::compiled::OptLevel::kFull);
  EXPECT_NE(raw.get(), safe.get());
  EXPECT_NE(raw.get(), full.get());
  EXPECT_NE(safe.get(), full.get());
  EXPECT_EQ(raw->level(), rtl::compiled::OptLevel::kNone);
  EXPECT_EQ(safe->level(), rtl::compiled::OptLevel::kSafe);
  EXPECT_EQ(full->level(), rtl::compiled::OptLevel::kFull);
  EXPECT_TRUE(safe->fault_overlay_safe());
  EXPECT_FALSE(full->fault_overlay_safe());
  // Each pass pipeline strictly shrinks the tape on this design.
  EXPECT_LT(safe->instrs().size(), raw->instrs().size());
  EXPECT_LT(full->instrs().size(), safe->instrs().size());
  EXPECT_EQ(cache.stats().tape_builds, 3u);
  const auto safe_again =
      cache.tape(cfg, rtl::HardeningStyle::kNone, rtl::compiled::OptLevel::kSafe);
  EXPECT_EQ(safe_again.get(), safe.get());
  EXPECT_EQ(cache.stats().tape_builds, 3u);
  EXPECT_EQ(cache.stats().tape_hits, 1u);
}

// Two configurations that differ ONLY in adder architecture must never
// alias: distinct cached artifacts, and genuinely
// different netlists (a prefix adder is chain-free where the carry-chain
// realization is chain cells end to end).  A collision here would hand a
// kogge-stone campaign a carry-chain fault space.
TEST(ArtifactCache, AdderArchitecturesGetDistinctKeysAndNetlists) {
  const hw::DatapathConfig chain = config_for(hw::DesignId::kDesign2);
  hw::DatapathConfig prefix = chain;
  prefix.adder_style = rtl::AdderArch::kKoggeStone;

  ArtifactCache cache;
  const auto a = cache.design(chain);
  const auto b = cache.design(prefix);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().design_builds, 2u);
  EXPECT_GT(a->dp.netlist.count_kind(rtl::CellKind::kAddSum), 0u);
  EXPECT_EQ(b->dp.netlist.count_kind(rtl::CellKind::kAddSum), 0u);
  EXPECT_NE(a->dp.netlist.cell_count(), b->dp.netlist.cell_count());
  // Every architecture in the family keys separately from every other:
  // after sweeping all of them, exactly kAdderArchCount artifacts exist
  // (the carry-chain and kogge-stone requests hit the two entries above).
  for (const rtl::AdderArch arch : rtl::all_adder_archs()) {
    hw::DatapathConfig cfg = chain;
    cfg.adder_style = arch;
    (void)cache.design(cfg);
  }
  EXPECT_EQ(cache.stats().design_builds,
            static_cast<std::size_t>(rtl::kAdderArchCount));
}

TEST(ArtifactCache, HardenedArtifactCarriesItsReport) {
  ArtifactCache cache;
  const hw::DatapathConfig cfg = config_for(hw::DesignId::kDesign1);
  const auto plain = cache.design(cfg);
  EXPECT_EQ(plain->harden, rtl::HardeningStyle::kNone);
  EXPECT_EQ(plain->harden_report.protected_ffs, 0u);
  const auto tmr = cache.design(cfg, rtl::HardeningStyle::kTmr);
  EXPECT_EQ(tmr->harden, rtl::HardeningStyle::kTmr);
  EXPECT_GT(tmr->harden_report.protected_ffs, 0u);
  EXPECT_GT(tmr->dp.netlist.cells().size(), plain->dp.netlist.cells().size());
}

TEST(ArtifactCache, ClearResetsEntriesAndCounters) {
  ArtifactCache cache;
  const hw::DatapathConfig cfg = config_for(hw::DesignId::kDesign2);
  const auto before = cache.design(cfg);
  cache.clear();
  const CacheStats zeroed = cache.stats();
  EXPECT_EQ(zeroed.design_builds, 0u);
  EXPECT_EQ(zeroed.design_hits, 0u);
  // A post-clear request re-elaborates; the old artifact stays valid
  // through its shared_ptr.
  const auto after = cache.design(cfg);
  EXPECT_EQ(cache.stats().design_builds, 1u);
  EXPECT_EQ(before->dp.netlist.cells().size(),
            after->dp.netlist.cells().size());
}

TEST(ArtifactCache, ProcessWideInstanceIsASingleton) {
  EXPECT_EQ(&ArtifactCache::instance(), &ArtifactCache::instance());
}

}  // namespace
}  // namespace dwt::core
