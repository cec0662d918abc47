#include "rtl/compiled/equivalence.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "rtl/compiled/batch_fault.hpp"
#include "rtl/compiled/wide_simulator.hpp"
#include "rtl/fault.hpp"
#include "rtl/simulator.hpp"

namespace dwt::rtl::compiled {
namespace {

std::vector<std::uint64_t> draw_stimulus(common::Rng& rng, std::uint64_t cycles,
                                         std::size_t n_inputs) {
  // Cycle-major, then input-major: bit L of each word is lane L's value, so
  // the interpreted replica for lane L replays exactly the compiled lane.
  std::vector<std::uint64_t> stimulus(cycles * n_inputs);
  for (std::uint64_t& w : stimulus) w = rng.next_u64();
  return stimulus;
}

/// Compares all nets the tape materializes after one step of both engines.
/// Returns false (and fills the report) on the first divergence.
bool compare_cycle(const Netlist& nl, const WideSimulator<1>& batch,
                   const std::vector<Simulator>& scalar, std::uint64_t c,
                   EquivalenceReport& report) {
  const unsigned lanes = static_cast<unsigned>(scalar.size());
  for (NetId n = 0; n < nl.net_count(); ++n) {
    if (!batch.tape().materialized(n)) {
      report.nets_skipped += lanes;
      continue;
    }
    const std::uint64_t got = batch.block(n).w[0];
    for (unsigned l = 0; l < lanes; ++l) {
      const bool want = scalar[l].value(n);
      ++report.nets_compared;
      if ((((got >> l) & 1) != 0) != want) {
        report.ok = false;
        report.mismatch = "net '" + nl.net(n).name + "' (id " +
                          std::to_string(n) + ") lane " + std::to_string(l) +
                          " cycle " + std::to_string(c) + ": compiled=" +
                          std::to_string((got >> l) & 1) +
                          " interpreted=" + std::to_string(want ? 1 : 0);
        return false;
      }
    }
  }
  return true;
}

}  // namespace

EquivalenceReport check_equivalence(const Netlist& nl, std::uint64_t cycles,
                                    std::uint64_t seed, unsigned lanes_to_check,
                                    OptLevel level) {
  if (cycles == 0) {
    throw std::invalid_argument("check_equivalence: zero cycles");
  }
  lanes_to_check = std::min(lanes_to_check, WideSimulator<1>::kTotalLanes);
  const std::vector<NetId>& pis = nl.primary_inputs();

  common::Rng rng(seed);
  const std::vector<std::uint64_t> stimulus =
      draw_stimulus(rng, cycles, pis.size());

  EquivalenceReport report;
  report.cycles = cycles;
  report.lanes_checked = lanes_to_check;

  WideSimulator<1> batch(compile(nl, level));
  std::vector<Simulator> scalar;
  scalar.reserve(lanes_to_check);
  for (unsigned l = 0; l < lanes_to_check; ++l) scalar.emplace_back(nl);

  for (std::uint64_t c = 0; c < cycles; ++c) {
    for (std::size_t i = 0; i < pis.size(); ++i) {
      const std::uint64_t w = stimulus[c * pis.size() + i];
      batch.set_input_block(pis[i], LaneBlock<1>{{w}});
      for (unsigned l = 0; l < lanes_to_check; ++l) {
        scalar[l].set_input(pis[i], ((w >> l) & 1) != 0);
      }
    }
    batch.step();
    for (unsigned l = 0; l < lanes_to_check; ++l) scalar[l].step();
    if (!compare_cycle(nl, batch, scalar, c, report)) return report;
  }
  return report;
}

EquivalenceReport check_fault_equivalence(const Netlist& nl,
                                          std::uint64_t cycles,
                                          std::uint64_t seed,
                                          unsigned lanes_to_check,
                                          OptLevel level) {
  if (cycles == 0) {
    throw std::invalid_argument("check_fault_equivalence: zero cycles");
  }
  if (level == OptLevel::kFull) {
    throw std::invalid_argument(
        "check_fault_equivalence: level is not fault-overlay safe");
  }
  lanes_to_check = std::min(lanes_to_check, WideSimulator<1>::kTotalLanes);
  const std::vector<NetId>& pis = nl.primary_inputs();

  common::Rng rng(seed);
  const std::vector<std::uint64_t> stimulus =
      draw_stimulus(rng, cycles, pis.size());

  // One random fault per checked lane, drawn kind -> target -> cycle ->
  // glitch value so the schedule is reproducible from the seed alone.
  const std::vector<NetId> seu = seu_targets(nl);
  const std::vector<NetId> stuck = stuck_targets(nl);
  const std::vector<NetId> glitch = glitch_targets(nl);
  std::vector<Fault> faults(lanes_to_check);
  for (Fault& f : faults) {
    for (;;) {
      const auto kind = static_cast<FaultKind>(rng.next_u64() % 4);
      const std::vector<NetId>& pool =
          kind == FaultKind::kSeuFlip
              ? seu
              : (kind == FaultKind::kGlitch ? glitch : stuck);
      if (pool.empty()) continue;
      f.kind = kind;
      f.net = pool[rng.next_u64() % pool.size()];
      f.cycle = rng.next_u64() % cycles;
      f.glitch_value = (rng.next_u64() & 1) != 0;
      break;
    }
  }

  EquivalenceReport report;
  report.cycles = cycles;
  report.lanes_checked = lanes_to_check;

  WideBatchSession<1> session(compile(nl, level));
  std::vector<Simulator> scalar;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  scalar.reserve(lanes_to_check);
  for (unsigned l = 0; l < lanes_to_check; ++l) scalar.emplace_back(nl);
  for (unsigned l = 0; l < lanes_to_check; ++l) {
    session.arm(l, faults[l]);
    injectors.push_back(std::make_unique<FaultInjector>(nl, scalar[l]));
    injectors.back()->arm(faults[l]);
  }

  for (std::uint64_t c = 0; c < cycles; ++c) {
    for (std::size_t i = 0; i < pis.size(); ++i) {
      const std::uint64_t w = stimulus[c * pis.size() + i];
      session.sim().set_input_block(pis[i], LaneBlock<1>{{w}});
      for (unsigned l = 0; l < lanes_to_check; ++l) {
        injectors[l]->set_input(pis[i], ((w >> l) & 1) != 0);
      }
    }
    session.step();
    for (unsigned l = 0; l < lanes_to_check; ++l) injectors[l]->step();
    if (!compare_cycle(nl, session.sim(), scalar, c, report)) return report;
  }
  return report;
}

}  // namespace dwt::rtl::compiled
