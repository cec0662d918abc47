// Thread-safe, content-addressed cache of elaboration/compilation artifacts.
//
// Every execution engine in this repo starts from the same expensive steps:
// elaborate a DatapathConfig into a gate-level netlist (build_lifting_
// datapath), optionally rewrite it with a hardening transform, then lower it
// for the chosen engine (compile a bit-parallel tape, or simplify + map to
// APEX logic elements).  Until this cache existed, each tile-scheduler
// worker, stream-runner lane, fault campaign and bench re-ran those steps
// privately -- per worker, per call.  The cache memoizes them once per
// (datapath config, hardening style) content key and hands out shared
// immutable artifacts: the netlist, tape and mapped structures are all
// read-only after construction (simulator state lives in per-consumer
// Simulator/WideSimulator/MappedActivitySim instances), so one artifact
// safely feeds any number of threads.  Each kind of artifact has its own
// store, keyed by the whole DatapathConfig (compared member-wise) plus the
// hardening style, and for tapes and what derives from them the
// optimization level and lane width.
//
// Concurrency contract: a key is built exactly once.  Racing requesters
// block on the winner's build and then share the same pointer -- the
// "same pointer across threads, never rebuilds" property the tests pin.
#pragma once

#include <compare>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>

#include "fpga/tech_mapper.hpp"
#include "hw/designs.hpp"
#include "rtl/compiled/cone_index.hpp"
#include "rtl/compiled/exec_tier.hpp"
#include "rtl/compiled/native_block.hpp"
#include "rtl/compiled/tape.hpp"
#include "rtl/harden.hpp"

namespace dwt::core {

/// An elaborated (and possibly hardened) datapath plus the hardening
/// accounting produced while rewriting it.
struct CachedDesign {
  hw::BuiltDatapath dp;
  rtl::HardeningStyle harden = rtl::HardeningStyle::kNone;
  rtl::HardeningReport harden_report;  ///< zeros when harden == kNone
};

/// The FPGA lowering of a datapath: simplified netlist with re-bound
/// streaming ports, and its APEX mapping.  `mapped.source` points at
/// `dp.netlist`, so the artifact must stay alive while the mapping is used
/// (sharing the owning shared_ptr, or aliasing it, guarantees that).
struct MappedDesign {
  hw::BuiltDatapath dp;
  fpga::MappedNetlist mapped;
};

struct CacheStats {
  std::uint64_t design_builds = 0;
  std::uint64_t design_hits = 0;
  std::uint64_t tape_builds = 0;
  std::uint64_t tape_hits = 0;
  std::uint64_t mapped_builds = 0;
  std::uint64_t mapped_hits = 0;
  std::uint64_t cone_builds = 0;
  std::uint64_t cone_hits = 0;
  std::uint64_t native_builds = 0;
  std::uint64_t native_hits = 0;
};

class ArtifactCache {
 public:
  ArtifactCache() = default;
  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// Elaborated datapath (hardened when `harden` != kNone).
  [[nodiscard]] std::shared_ptr<const CachedDesign> design(
      const hw::DatapathConfig& cfg,
      rtl::HardeningStyle harden = rtl::HardeningStyle::kNone);

  /// Compiled bit-parallel tape of the (possibly hardened) datapath at the
  /// requested optimization level.  Each level is its own cache entry,
  /// built directly via compile(netlist, level) from the shared design
  /// artifact.
  [[nodiscard]] std::shared_ptr<const rtl::compiled::Tape> tape(
      const hw::DatapathConfig& cfg,
      rtl::HardeningStyle harden = rtl::HardeningStyle::kNone,
      rtl::compiled::OptLevel level = rtl::compiled::OptLevel::kNone);

  /// Fan-out cone index of the tape the same (cfg, harden, level) triple
  /// yields -- likewise built exactly once, so every campaign shares one
  /// index.
  [[nodiscard]] std::shared_ptr<const rtl::compiled::ConeIndex> cone_index(
      const hw::DatapathConfig& cfg,
      rtl::HardeningStyle harden = rtl::HardeningStyle::kNone,
      rtl::compiled::OptLevel level = rtl::compiled::OptLevel::kNone);

  /// JIT'd machine code for the tape the same (cfg, harden, level) triple
  /// yields, at `words` lane words per slot, so one emitted block feeds
  /// every simulator of a configuration at that width.  Returns null (and
  /// still caches the null, the build attempt is counted once) when the
  /// host cannot run native code for this width; callers fall back to the
  /// interpreter.
  [[nodiscard]] std::shared_ptr<const rtl::compiled::NativeBlock> native_block(
      const hw::DatapathConfig& cfg, rtl::HardeningStyle harden,
      rtl::compiled::OptLevel level, unsigned words);

  /// The one execution-tier decision for compiled simulators: the shared
  /// native_block() when `tier` resolves to native (resolve_exec_tier folds
  /// in kAuto, the DWT_EXEC_TIER override and host support), otherwise
  /// null -- which WideSimulator::set_native() takes as "run the
  /// interpreter".  Nothing is emitted when the answer is the interpreter.
  [[nodiscard]] std::shared_ptr<const rtl::compiled::NativeBlock> native_for(
      rtl::compiled::ExecTier tier, const hw::DatapathConfig& cfg,
      rtl::HardeningStyle harden, rtl::compiled::OptLevel level,
      unsigned words);

  /// simplify() + APEX mapping of the (possibly hardened) datapath.
  [[nodiscard]] std::shared_ptr<const MappedDesign> mapped(
      const hw::DatapathConfig& cfg,
      rtl::HardeningStyle harden = rtl::HardeningStyle::kNone);

  [[nodiscard]] CacheStats stats() const;

  /// Drops every entry and zeroes the statistics (tests and cold/warm
  /// benchmarking; in-flight artifacts stay alive through their shared
  /// pointers).
  void clear();

  /// The process-wide cache every production consumer shares.
  static ArtifactCache& instance();

 private:
  /// What an artifact is built from.  Stores that do not depend on a
  /// field leave it at its default.
  struct Key {
    hw::DatapathConfig config;
    rtl::HardeningStyle harden = rtl::HardeningStyle::kNone;
    rtl::compiled::OptLevel level = rtl::compiled::OptLevel::kNone;
    unsigned words = 0;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  template <typename T>
  struct Store {
    std::map<Key, std::shared_future<std::shared_ptr<const T>>> map;
    std::uint64_t builds = 0;
    std::uint64_t hits = 0;
  };

  mutable std::mutex mutex_;
  Store<CachedDesign> designs_;
  Store<rtl::compiled::Tape> tapes_;
  Store<MappedDesign> mapped_;
  Store<rtl::compiled::ConeIndex> cones_;
  Store<rtl::compiled::NativeBlock> natives_;
};

}  // namespace dwt::core
