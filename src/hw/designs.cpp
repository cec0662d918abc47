#include "hw/designs.hpp"

#include <cctype>
#include <stdexcept>
#include <string>

namespace dwt::hw {

std::vector<DesignSpec> all_designs() {
  using rtl::AdderStyle;
  DatapathConfig base;  // 8-bit signed samples, 8 fractional bits
  std::vector<DesignSpec> specs;

  DatapathConfig c1 = base;
  c1.multiplier = MultiplierStyle::kGenericArray;
  c1.adder_style = AdderStyle::kCarryChain;
  c1.pipelined_operators = false;
  specs.push_back({DesignId::kDesign1, "Design 1",
                   "behavioral description with integer generic multipliers",
                   c1});

  DatapathConfig c2 = base;
  c2.multiplier = MultiplierStyle::kShiftAdd;
  c2.adder_style = AdderStyle::kCarryChain;
  c2.pipelined_operators = false;
  specs.push_back({DesignId::kDesign2, "Design 2",
                   "behavioral description with shifted integer adders", c2});

  DatapathConfig c3 = c2;
  c3.pipelined_operators = true;
  specs.push_back(
      {DesignId::kDesign3, "Design 3",
       "behavioral description with pipeline of shifted integer adders", c3});

  DatapathConfig c4 = c2;
  c4.adder_style = AdderStyle::kRippleGates;
  specs.push_back({DesignId::kDesign4, "Design 4",
                   "structural description with shifted integer adders", c4});

  DatapathConfig c5 = c4;
  c5.pipelined_operators = true;
  specs.push_back(
      {DesignId::kDesign5, "Design 5",
       "structural description with pipeline of shifted integer adders", c5});
  return specs;
}

DesignSpec design_spec(DesignId id) {
  for (DesignSpec& s : all_designs()) {
    if (s.id == id) return std::move(s);
  }
  throw std::invalid_argument("design_spec: unknown design");
}

std::vector<DesignSpec> adder_variant_designs() {
  // Design 1 is excluded: its generic-array multipliers dominate both area
  // and the critical path, so an adder swap moves nothing the sweep cares
  // about while tripling the largest elaboration in the space.
  std::vector<DesignSpec> specs;
  for (const DesignId id : {DesignId::kDesign2, DesignId::kDesign3,
                            DesignId::kDesign4, DesignId::kDesign5}) {
    for (const rtl::AdderArch arch : rtl::prefix_adder_archs()) {
      DesignSpec spec = design_spec(id);
      spec.config.adder_style = arch;
      spec.name = design_point_name(id, arch);
      spec.description += std::string(", ") + rtl::adder_name(arch) +
                          " parallel-prefix adders";
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

std::string design_point_name(DesignId id,
                              std::optional<rtl::AdderArch> adder) {
  std::string name = design_name(id);
  if (adder.has_value()) {
    name += std::string(" (") + rtl::adder_name(*adder) + ")";
  }
  return name;
}

int design_index(DesignId id) { return static_cast<int>(id) + 1; }

std::string design_name(DesignId id) {
  return "Design " + std::to_string(design_index(id));
}

std::optional<DesignId> parse_design(std::string_view text) {
  // Strip an optional case-insensitive "design" prefix and one separator.
  constexpr std::string_view kPrefix = "design";
  if (text.size() > kPrefix.size()) {
    bool prefixed = true;
    for (std::size_t i = 0; i < kPrefix.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(text[i])) != kPrefix[i]) {
        prefixed = false;
        break;
      }
    }
    if (prefixed) {
      text.remove_prefix(kPrefix.size());
      if (!text.empty() && (text.front() == ' ' || text.front() == '-' ||
                            text.front() == '_')) {
        text.remove_prefix(1);
      }
    }
  }
  if (text.size() != 1 || text.front() < '1' ||
      text.front() > '0' + kDesignCount) {
    return std::nullopt;
  }
  return static_cast<DesignId>(text.front() - '1');
}

DatapathConfig design_config(DesignId id, int max_octaves,
                             std::optional<rtl::AdderArch> adder) {
  if (max_octaves < 1 || max_octaves > 9) {
    throw std::invalid_argument(
        "design_config: a gate-level core transforms 1..9 octaves, not " +
        std::to_string(max_octaves));
  }
  DatapathConfig cfg = design_spec(id).config;
  if (max_octaves > 1) {
    cfg.input_bits = 8 + 2 * (max_octaves - 1);
    cfg.paper_widths = false;  // interval-analysis sizing for wide inputs
  }
  if (adder.has_value()) cfg.adder_style = *adder;
  return cfg;
}

BuiltDatapath build_design(DesignId id) {
  return build_lifting_datapath(design_spec(id).config);
}

namespace {

bool any_output_bit_registered(const rtl::Netlist& nl, const rtl::Bus& bus) {
  for (const rtl::NetId n : bus.bits) {
    const rtl::CellId driver = nl.net(n).driver;
    if (driver != rtl::kNullCell &&
        nl.cell(driver).kind == rtl::CellKind::kDff) {
      return true;
    }
  }
  return false;
}

}  // namespace

BuiltDatapath harden_datapath(const BuiltDatapath& dp,
                              rtl::HardeningStyle style,
                              rtl::HardeningReport* report) {
  BuiltDatapath out;
  out.netlist = rtl::apply_hardening(dp.netlist, style, report);
  out.in_even = out.netlist.find_input_bus("in_even");
  out.in_odd = out.netlist.find_input_bus("in_odd");
  out.out_low = out.netlist.output("low");
  out.out_high = out.netlist.output("high");
  out.info = dp.info;
  out.config = dp.config;
  if (style == rtl::HardeningStyle::kTmr &&
      (any_output_bit_registered(dp.netlist, dp.out_low) ||
       any_output_bit_registered(dp.netlist, dp.out_high))) {
    // Registered port bits are now majority-voter (combinational) nets: the
    // harness samples them one settle after the flip-flops they vote on.
    out.info.latency += 1;
  }
  return out;
}

std::vector<PaperTable3Row> paper_table3() {
  return {
      {"Design 1", 781, 16.6, 310.0, 8},
      {"Design 2", 480, 44.0, 248.0, 8},
      {"Design 3", 766, 157.0, 105.0, 21},
      {"Design 4", 701, 54.4, 232.0, 8},
      {"Design 5", 1002, 105.0, 91.4, 21},
  };
}

}  // namespace dwt::hw
