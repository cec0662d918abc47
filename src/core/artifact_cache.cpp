#include "core/artifact_cache.hpp"

#include <utility>

#include "rtl/simplify.hpp"

namespace dwt::core {

namespace {

/// Looks `key` up, building via `build()` on a miss.  The build runs outside
/// the lock (so independent keys elaborate in parallel and a build may
/// recursively request other keys) while racing requesters of the same key
/// wait on the winner's future.
template <typename T, typename Key, typename Build>
std::shared_ptr<const T> get_or_build(
    std::mutex& mutex,
    std::map<Key, std::shared_future<std::shared_ptr<const T>>>& map,
    std::uint64_t& builds, std::uint64_t& hits, const Key& key,
    Build&& build) {
  std::promise<std::shared_ptr<const T>> promise;
  bool won = false;
  std::shared_future<std::shared_ptr<const T>> future;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = map.find(key);
    if (it != map.end()) {
      ++hits;
      future = it->second;
    } else {
      ++builds;
      won = true;
      future = promise.get_future().share();
      map.emplace(key, future);
    }
  }
  if (!won) return future.get();
  try {
    promise.set_value(build());
  } catch (...) {
    // Propagate to every waiter, then forget the entry so a later call can
    // retry (a failed build must not poison the key forever).
    promise.set_exception(std::current_exception());
    const std::lock_guard<std::mutex> lock(mutex);
    map.erase(key);
  }
  return future.get();
}

}  // namespace

std::shared_ptr<const CachedDesign> ArtifactCache::design(
    const hw::DatapathConfig& cfg, rtl::HardeningStyle harden) {
  return get_or_build(
      mutex_, designs_.map, designs_.builds, designs_.hits, Key{cfg, harden},
      [&]() -> std::shared_ptr<const CachedDesign> {
        auto artifact = std::make_shared<CachedDesign>();
        artifact->harden = harden;
        if (harden == rtl::HardeningStyle::kNone) {
          artifact->dp = hw::build_lifting_datapath(cfg);
        } else {
          const std::shared_ptr<const CachedDesign> base =
              design(cfg, rtl::HardeningStyle::kNone);
          artifact->dp = hw::harden_datapath(base->dp, harden,
                                             &artifact->harden_report);
        }
        return artifact;
      });
}

std::shared_ptr<const rtl::compiled::Tape> ArtifactCache::tape(
    const hw::DatapathConfig& cfg, rtl::HardeningStyle harden,
    rtl::compiled::OptLevel level) {
  return get_or_build(mutex_, tapes_.map, tapes_.builds, tapes_.hits,
                      Key{cfg, harden, level}, [&]() {
                        const std::shared_ptr<const CachedDesign> d =
                            design(cfg, harden);
                        return rtl::compiled::compile(d->dp.netlist, level);
                      });
}

std::shared_ptr<const rtl::compiled::ConeIndex> ArtifactCache::cone_index(
    const hw::DatapathConfig& cfg, rtl::HardeningStyle harden,
    rtl::compiled::OptLevel level) {
  return get_or_build(mutex_, cones_.map, cones_.builds, cones_.hits,
                      Key{cfg, harden, level}, [&]() {
                        const std::shared_ptr<const rtl::compiled::Tape> t =
                            tape(cfg, harden, level);
                        return rtl::compiled::ConeIndex::build(*t);
                      });
}

std::shared_ptr<const rtl::compiled::NativeBlock> ArtifactCache::native_block(
    const hw::DatapathConfig& cfg, rtl::HardeningStyle harden,
    rtl::compiled::OptLevel level, unsigned words) {
  return get_or_build(
      mutex_, natives_.map, natives_.builds, natives_.hits,
      Key{cfg, harden, level, words},
      [&]() -> std::shared_ptr<const rtl::compiled::NativeBlock> {
        const std::shared_ptr<const rtl::compiled::Tape> t =
            tape(cfg, harden, level);
        return rtl::compiled::NativeBlock::build(*t, words);
      });
}

std::shared_ptr<const rtl::compiled::NativeBlock> ArtifactCache::native_for(
    rtl::compiled::ExecTier tier, const hw::DatapathConfig& cfg,
    rtl::HardeningStyle harden, rtl::compiled::OptLevel level,
    unsigned words) {
  if (rtl::compiled::resolve_exec_tier(tier, words) !=
      rtl::compiled::ExecTier::kNative) {
    return nullptr;
  }
  return native_block(cfg, harden, level, words);
}

std::shared_ptr<const MappedDesign> ArtifactCache::mapped(
    const hw::DatapathConfig& cfg, rtl::HardeningStyle harden) {
  return get_or_build(
      mutex_, mapped_.map, mapped_.builds, mapped_.hits, Key{cfg, harden},
      [&]() -> std::shared_ptr<const MappedDesign> {
        const std::shared_ptr<const CachedDesign> d = design(cfg, harden);
        // Build in place inside the shared_ptr: `mapped.source` points at
        // `dp.netlist`, so the Netlist must never move after mapping.
        auto artifact = std::make_shared<MappedDesign>();
        artifact->dp.netlist = rtl::simplify(d->dp.netlist);
        artifact->dp.in_even = artifact->dp.netlist.find_input_bus("in_even");
        artifact->dp.in_odd = artifact->dp.netlist.find_input_bus("in_odd");
        artifact->dp.out_low = artifact->dp.netlist.output("low");
        artifact->dp.out_high = artifact->dp.netlist.output("high");
        artifact->dp.info = d->dp.info;
        artifact->dp.config = d->dp.config;
        artifact->mapped = fpga::map_to_apex(artifact->dp.netlist);
        return artifact;
      });
}

CacheStats ArtifactCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  CacheStats s;
  s.design_builds = designs_.builds;
  s.design_hits = designs_.hits;
  s.tape_builds = tapes_.builds;
  s.tape_hits = tapes_.hits;
  s.mapped_builds = mapped_.builds;
  s.mapped_hits = mapped_.hits;
  s.cone_builds = cones_.builds;
  s.cone_hits = cones_.hits;
  s.native_builds = natives_.builds;
  s.native_hits = natives_.hits;
  return s;
}

void ArtifactCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  designs_.map.clear();
  tapes_.map.clear();
  mapped_.map.clear();
  cones_.map.clear();
  natives_.map.clear();
  designs_.builds = designs_.hits = 0;
  tapes_.builds = tapes_.hits = 0;
  mapped_.builds = mapped_.hits = 0;
  cones_.builds = cones_.hits = 0;
  natives_.builds = natives_.hits = 0;
}

ArtifactCache& ArtifactCache::instance() {
  static ArtifactCache cache;
  return cache;
}

}  // namespace dwt::core
