// Streaming harness for the 1D-DWT cores: feeds a whole-sample-symmetric
// extended sample stream (the boundary treatment of paper section 2, which
// the memory controller performs in the 2D system of figure 4) into a
// simulated datapath and collects the valid low/high coefficient window.
// Every harness below -- scalar, faulty, mapped, batched, 5/3 and inverse --
// runs the same pair schedule: kGuardPairs guard pairs, the payload,
// kGuardPairs trailing guards, then `latency` flush cycles.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fpga/mapped_sim.hpp"
#include "hw/inverse_lifting_datapath.hpp"
#include "hw/lifting53_datapath.hpp"
#include "hw/lifting_datapath.hpp"
#include "rtl/compiled/batch_fault.hpp"
#include "rtl/fault.hpp"
#include "rtl/simulator.hpp"

namespace dwt::hw {

struct StreamResult {
  std::vector<std::int64_t> low;   ///< ceil(n/2) low-pass coefficients
  std::vector<std::int64_t> high;  ///< floor(n/2) high-pass coefficients
  std::uint64_t cycles = 0;  ///< clock cycles consumed, including flush
};

/// Number of mirrored guard pairs fed before and after the payload; two are
/// mathematically required by the 9/7 support, four adds pipeline-flush
/// margin.
inline constexpr int kGuardPairs = 4;

/// Runs a signal of any non-zero length through the datapath on the
/// zero-delay functional simulator.  Odd lengths follow the JPEG2000 (1,1)
/// symmetric extension (the trailing mirrored pair's high output is the
/// extension's phantom coefficient and is dropped); a single-sample signal
/// passes through without touching the core.
[[nodiscard]] StreamResult run_stream(const BuiltDatapath& dp,
                                      rtl::Simulator& sim,
                                      std::span<const std::int64_t> x);

/// Same, on the mapped-netlist transport-delay simulator (LUT-level
/// glitches) -- the switching-activity workload behind the power model.
[[nodiscard]] StreamResult run_stream_mapped(const BuiltDatapath& dp,
                                             fpga::MappedActivitySim& sim,
                                             std::span<const std::int64_t> x);

/// Same, through a fault-injection overlay: armed faults strike mid-stream
/// at their scheduled cycles (cycle 0 is the first fed pair, guards
/// included).  With no faults armed this is bit-identical to run_stream.
[[nodiscard]] StreamResult run_stream_faulty(const BuiltDatapath& dp,
                                             rtl::FaultInjector& inj,
                                             std::span<const std::int64_t> x);

/// Batched equivalent of run_stream_faulty on the compiled bit-parallel
/// engine: every lane streams the same extended signal while the session
/// applies each lane's armed fault overlay, so one call carries up to
/// 64 * W independent fault trials (64 per slot word times the session's
/// lane-block width W).  Returns the per-lane coefficient windows for the
/// first `lanes` lanes; with no faults armed every lane is bit-identical to
/// run_stream.  A session replaying a golden trace reads the trace on the
/// cycles it skips, so its lanes are identical too.
template <unsigned W>
[[nodiscard]] std::vector<StreamResult> run_stream_batch(
    const BuiltDatapath& dp, rtl::compiled::WideBatchSession<W>& session,
    std::span<const std::int64_t> x, unsigned lanes);

extern template std::vector<StreamResult> run_stream_batch<1>(
    const BuiltDatapath&, rtl::compiled::WideBatchSession<1>&,
    std::span<const std::int64_t>, unsigned);
extern template std::vector<StreamResult> run_stream_batch<4>(
    const BuiltDatapath&, rtl::compiled::WideBatchSession<4>&,
    std::span<const std::int64_t>, unsigned);

/// Cycles one run_stream / run_stream_faulty / run_stream_mapped /
/// run_stream_batch call on `dp` consumes for an `n`-sample signal:
/// ceil(n/2) + 2*kGuardPairs + latency (payload + guards + flush).
/// Campaign schedulers use it to draw in-range injection cycles.
[[nodiscard]] std::uint64_t stream_cycle_count(const BuiltDatapath& dp,
                                               std::size_t n);

/// Streaming harness for the reversible 5/3 core.
[[nodiscard]] StreamResult run_stream53(const BuiltDatapath53& dp,
                                        rtl::Simulator& sim,
                                        std::span<const std::int64_t> x);

struct InverseStreamResult {
  std::vector<std::int64_t> samples;  ///< interleaved even/odd reconstruction
  std::uint64_t cycles = 0;
};

/// Streaming harness for the inverse core: feeds (low, high) coefficient
/// pairs with the edge-replicated extension the software inverse model
/// assumes, and collects the reconstructed sample pairs.
[[nodiscard]] InverseStreamResult run_stream_inverse(
    const BuiltInverseDatapath& dp, rtl::Simulator& sim,
    std::span<const std::int64_t> low, std::span<const std::int64_t> high);

}  // namespace dwt::hw
