#include "hw/filterbank_core.hpp"

#include <stdexcept>
#include <vector>

#include "dsp/fir_filter.hpp"
#include "rtl/adders.hpp"
#include "rtl/multipliers.hpp"
#include "rtl/registers.hpp"

namespace dwt::hw {
namespace {

using rtl::Builder;
using rtl::Pipeliner;
using rtl::Word;

/// One tap multiplication: coeff_raw * tap, truncated later (accumulation is
/// exact, the >>frac_bits adjust happens once on the filter sum, matching
/// the fixed tap table of dsp::FirBank).
Word tap_product(Pipeliner& p, const Word& tap, std::int64_t coeff_raw,
                 const FilterBankConfig& cfg, const std::string& name) {
  const rtl::ShiftAddPlan plan = rtl::make_shiftadd_plan(coeff_raw, cfg.recoding);
  return rtl::shiftadd_multiply(p, tap, plan, cfg.adder_style,
                                cfg.sum_structure, name);
}

}  // namespace

BuiltFilterBank build_filterbank_core(const FilterBankConfig& cfg) {
  if (cfg.input_bits < 2 || cfg.input_bits > 24) {
    throw std::invalid_argument("build_filterbank_core: bad input_bits");
  }
  const auto coeffs = dsp::Dwt97FirFixedCoeffs::rounded(cfg.frac_bits);

  BuiltFilterBank out;
  out.config = cfg;
  rtl::Netlist& nl = out.netlist;
  Builder b(nl);
  Pipeliner p(b, cfg.pipelined_operators);

  Word in = rtl::word_input(nl, "in_sample", cfg.input_bits);
  // 9-deep sample window; all taps share the same logical pipeline depth
  // because they deliberately hold *different* samples of the window.
  std::vector<Word> taps(9);
  taps[0] = in;
  for (std::size_t k = 1; k < taps.size(); ++k) {
    taps[k] = Word{b.reg(taps[k - 1].bus, "w" + std::to_string(k)), in.range,
                   in.depth};
  }

  auto build_filter = [&](std::span<const std::int64_t> h, std::size_t first_tap,
                          const std::string& name) -> Word {
    std::vector<Word> products;
    int mult_blocks = 0;
    if (cfg.exploit_symmetry) {
      // h[j] == h[taps-1-j]: pre-add mirrored taps, halving multipliers.
      const std::size_t n = h.size();
      for (std::size_t j = 0; j < n / 2; ++j) {
        Word pre = rtl::word_add(p, taps[first_tap + j],
                                 taps[first_tap + n - 1 - j], cfg.adder_style,
                                 name + ".pre" + std::to_string(j));
        products.push_back(
            tap_product(p, pre, h[j], cfg, name + ".m" + std::to_string(j)));
        ++mult_blocks;
      }
      products.push_back(tap_product(p, taps[first_tap + n / 2], h[n / 2], cfg,
                                     name + ".mc"));
      ++mult_blocks;
    } else {
      for (std::size_t j = 0; j < h.size(); ++j) {
        products.push_back(tap_product(p, taps[first_tap + j], h[j], cfg,
                                       name + ".m" + std::to_string(j)));
        ++mult_blocks;
      }
    }
    out.multiplier_blocks += mult_blocks;
    Word sum = rtl::sum_tree(p, std::move(products), cfg.adder_style,
                             name + ".sum");
    return rtl::word_asr(b, sum, cfg.frac_bits);
  };

  Word low = build_filter(coeffs.analysis_low, 0, "lp");
  Word high = build_filter(coeffs.analysis_high, 1, "hp");
  // Output registers (one stage even in the non-pipelined variant).
  low = p.stage(low, "r_low");
  high = p.stage(high, "r_high");
  p.align(low, high, "out");

  nl.bind_output("low", low.bus);
  nl.bind_output("high", high.bus);
  nl.validate();
  out.in_sample = in.bus;
  out.out_low = low.bus;
  out.out_high = high.bus;
  out.latency = low.depth;
  return out;
}

}  // namespace dwt::hw
