#include "hw/stream_runner.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "dsp/fir_filter.hpp"

namespace dwt::hw {
namespace {

/// ceil(n/2) / floor(n/2): the low/high sub-band sizes an n-sample signal
/// produces under the JPEG2000 (1,1) symmetric extension.
std::size_t low_count(std::size_t n) { return (n + 1) / 2; }
std::size_t high_count(std::size_t n) { return n / 2; }

/// Cycles the pair schedule takes for `pairs` fed pairs: leading guards,
/// payload, trailing guards, then `latency` flush cycles.
std::uint64_t schedule_cycles(std::size_t pairs, int latency) {
  return static_cast<std::uint64_t>(pairs + 2 * kGuardPairs +
                                    static_cast<std::size_t>(latency));
}

/// The one port/latency check every harness shares.
void check_core(const rtl::Bus& in_a, const rtl::Bus& in_b,
                const rtl::Bus& out_a, const rtl::Bus& out_b, int latency,
                const char* who) {
  if (in_a.bits.empty() || in_b.bits.empty() || out_a.bits.empty() ||
      out_b.bits.empty()) {
    throw std::invalid_argument(std::string(who) +
                                ": datapath port bus is empty");
  }
  if (latency < 0) {
    throw std::invalid_argument(std::string(who) + ": negative latency");
  }
}

/// The Fig. 4 memory controller's pair schedule -- the one cycle loop of
/// every harness.  At cycle c it drives pair t = c - kGuardPairs, as
/// returned by `pair(t)`, onto the core's two input buses and clocks the
/// simulator; negative t are the leading guards, and once the trailing
/// guards are through, the last one is re-fed while the pipeline flushes.
/// It then calls `capture(i)` for output index i = c - latency -
/// kGuardPairs + 1 while 0 <= i < pairs.  Returns the cycles consumed,
/// schedule_cycles(pairs, latency).
template <typename Sim, typename Pair, typename Capture>
std::uint64_t run_schedule(Sim& sim, const rtl::Bus& in_a,
                           const rtl::Bus& in_b, std::size_t pairs,
                           int latency, const Pair& pair,
                           const Capture& capture) {
  const auto np = static_cast<std::ptrdiff_t>(pairs);
  const std::uint64_t total = schedule_cycles(pairs, latency);
  for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(total); ++c) {
    const auto [a, b] = pair(std::min(c - kGuardPairs, np + kGuardPairs - 1));
    sim.set_bus(in_a, a);
    sim.set_bus(in_b, b);
    if constexpr (requires { sim.step(); }) {
      sim.step();
    } else {
      sim.cycle();
    }
    const std::ptrdiff_t i = c - latency - kGuardPairs + 1;
    if (i >= 0 && i < np) capture(static_cast<std::size_t>(i));
  }
  return total;
}

/// Extended pair t of `x` under the whole-sample symmetric extension:
/// (x_ext[2t], x_ext[2t+1]).  For odd n the last payload pair's odd slot is
/// the mirrored sample x[n-2]; the high-band value it produces is the
/// extension's phantom d[nd] = d[nd-1] and is simply not captured, so n
/// samples yield ceil(n/2) low and floor(n/2) high coefficients.
auto mirrored_pairs(std::span<const std::int64_t> x) {
  return [x](std::ptrdiff_t t) {
    return std::pair{x[dsp::mirror_index(2 * t, x.size())],
                     x[dsp::mirror_index(2 * t + 1, x.size())]};
  };
}

/// A single-sample stream passes through the controller untouched (the
/// JPEG2000 single-sample rule); the datapath never runs, so the identity
/// result is reported with the cycle count of a one-pair stream.
StreamResult single_sample_result(std::int64_t x0, int latency) {
  StreamResult out;
  out.low = {x0};
  out.cycles = schedule_cycles(1, latency);
  return out;
}

template <typename Sim>
StreamResult run_impl(const rtl::Bus& in_even, const rtl::Bus& in_odd,
                      const rtl::Bus& out_low, const rtl::Bus& out_high,
                      int latency, Sim& sim, std::span<const std::int64_t> x) {
  if (x.empty()) {
    throw std::invalid_argument("run_stream: empty signal");
  }
  check_core(in_even, in_odd, out_low, out_high, latency, "run_stream");
  if (x.size() == 1) return single_sample_result(x[0], latency);
  StreamResult out;
  out.low.assign(low_count(x.size()), 0);
  out.high.assign(high_count(x.size()), 0);
  out.cycles = run_schedule(
      sim, in_even, in_odd, out.low.size(), latency, mirrored_pairs(x),
      [&](std::size_t i) {
        out.low[i] = sim.read_bus(out_low);
        if (i < out.high.size()) out.high[i] = sim.read_bus(out_high);
      });
  return out;
}

}  // namespace

StreamResult run_stream(const BuiltDatapath& dp, rtl::Simulator& sim,
                        std::span<const std::int64_t> x) {
  return run_impl(dp.in_even, dp.in_odd, dp.out_low, dp.out_high,
                  dp.info.latency, sim, x);
}

StreamResult run_stream_mapped(const BuiltDatapath& dp,
                               fpga::MappedActivitySim& sim,
                               std::span<const std::int64_t> x) {
  return run_impl(dp.in_even, dp.in_odd, dp.out_low, dp.out_high,
                  dp.info.latency, sim, x);
}

StreamResult run_stream_faulty(const BuiltDatapath& dp, rtl::FaultInjector& inj,
                               std::span<const std::int64_t> x) {
  return run_impl(dp.in_even, dp.in_odd, dp.out_low, dp.out_high,
                  dp.info.latency, inj, x);
}

// Every lane sees the same samples, and the per-lane overlays inside the
// session produce the divergence.  Output capture goes through the session's
// bulk read (one slot resolution per bus bit, fanned out to all lanes) --
// with hundreds of lanes the per-lane read_bus calls otherwise rival the
// settle itself.
template <unsigned W>
std::vector<StreamResult> run_stream_batch(
    const BuiltDatapath& dp, rtl::compiled::WideBatchSession<W>& session,
    std::span<const std::int64_t> x, unsigned lanes) {
  if (x.empty()) {
    throw std::invalid_argument("run_stream_batch: empty signal");
  }
  if (lanes == 0 || lanes > rtl::compiled::WideBatchSession<W>::kTotalLanes) {
    throw std::invalid_argument("run_stream_batch: bad lane count");
  }
  const int latency = dp.info.latency;
  check_core(dp.in_even, dp.in_odd, dp.out_low, dp.out_high, latency,
             "run_stream_batch");
  if (x.size() == 1) {
    // Pass-through stream: no datapath activity, so no fault can land.
    return std::vector<StreamResult>(lanes,
                                     single_sample_result(x[0], latency));
  }
  const std::size_t nd = high_count(x.size());
  std::vector<StreamResult> out(lanes);
  for (StreamResult& r : out) {
    r.low.assign(low_count(x.size()), 0);
    r.high.assign(nd, 0);
  }
  std::vector<std::int64_t> lane_values(lanes);
  const std::uint64_t cycles = run_schedule(
      session, dp.in_even, dp.in_odd, low_count(x.size()), latency,
      mirrored_pairs(x), [&](std::size_t i) {
        session.read_bus_all(dp.out_low, lane_values.data(), lanes);
        for (unsigned l = 0; l < lanes; ++l) out[l].low[i] = lane_values[l];
        if (i < nd) {
          session.read_bus_all(dp.out_high, lane_values.data(), lanes);
          for (unsigned l = 0; l < lanes; ++l) out[l].high[i] = lane_values[l];
        }
      });
  for (StreamResult& r : out) r.cycles = cycles;
  return out;
}

template std::vector<StreamResult> run_stream_batch<1>(
    const BuiltDatapath&, rtl::compiled::WideBatchSession<1>&,
    std::span<const std::int64_t>, unsigned);
template std::vector<StreamResult> run_stream_batch<4>(
    const BuiltDatapath&, rtl::compiled::WideBatchSession<4>&,
    std::span<const std::int64_t>, unsigned);

std::uint64_t stream_cycle_count(const BuiltDatapath& dp, std::size_t n) {
  if (n == 0) {
    throw std::invalid_argument("stream_cycle_count: empty signal");
  }
  return schedule_cycles(low_count(n), dp.info.latency);
}

StreamResult run_stream53(const BuiltDatapath53& dp, rtl::Simulator& sim,
                          std::span<const std::int64_t> x) {
  return run_impl(dp.in_even, dp.in_odd, dp.out_low, dp.out_high, dp.latency,
                  sim, x);
}

InverseStreamResult run_stream_inverse(const BuiltInverseDatapath& dp,
                                       rtl::Simulator& sim,
                                       std::span<const std::int64_t> low,
                                       std::span<const std::int64_t> high) {
  const std::size_t ns = low.size();
  const std::size_t nd = high.size();
  if (ns == 0 || (nd != ns && nd + 1 != ns)) {
    throw std::invalid_argument("run_stream_inverse: bad sub-band sizes");
  }
  check_core(dp.in_low, dp.in_high, dp.out_even, dp.out_odd, dp.latency,
             "run_stream_inverse");
  InverseStreamResult out;
  if (ns == 1 && nd == 0) {
    out.samples = {low[0]};
    out.cycles = schedule_cycles(1, dp.latency);
    return out;
  }
  out.samples.assign(ns + nd, 0);
  // Edge replication matches the software inverse model's boundary handling
  // (d_before(0) = d[0], s_at(ns) = s[ns-1]); for an odd-length signal the
  // high band is one short, so its clamp point comes one pair earlier
  // (d[nd] = d[nd-1], the (1,1) extension's phantom value).
  auto clamp_to = [](std::ptrdiff_t t, std::size_t count) {
    return static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
        t, 0, static_cast<std::ptrdiff_t>(count) - 1));
  };
  out.cycles = run_schedule(
      sim, dp.in_low, dp.in_high, ns, dp.latency,
      [&](std::ptrdiff_t t) {
        return std::pair{low[clamp_to(t, ns)], high[clamp_to(t, nd)]};
      },
      [&](std::size_t i) {
        out.samples[2 * i] = sim.read_bus(dp.out_even);
        if (2 * i + 1 < out.samples.size()) {
          out.samples[2 * i + 1] = sim.read_bus(dp.out_odd);
        }
      });
  return out;
}

}  // namespace dwt::hw
