#include "hw/designs.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "rtl/stats.hpp"

namespace dwt::hw {
namespace {

TEST(Designs, FiveDesignsInPaperOrder) {
  const auto specs = all_designs();
  ASSERT_EQ(specs.size(), 5u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].name, "Design " + std::to_string(i + 1));
    EXPECT_FALSE(specs[i].description.empty());
  }
}

TEST(Designs, ConfigurationAxesMatchPaperSection3) {
  const auto specs = all_designs();
  // Design 1: behavioral generic multipliers.
  EXPECT_EQ(specs[0].config.multiplier, MultiplierStyle::kGenericArray);
  EXPECT_EQ(specs[0].config.adder_style, rtl::AdderStyle::kCarryChain);
  EXPECT_FALSE(specs[0].config.pipelined_operators);
  // Design 2: behavioral shift-add.
  EXPECT_EQ(specs[1].config.multiplier, MultiplierStyle::kShiftAdd);
  EXPECT_FALSE(specs[1].config.pipelined_operators);
  // Design 3: behavioral pipelined shift-add.
  EXPECT_TRUE(specs[2].config.pipelined_operators);
  EXPECT_EQ(specs[2].config.adder_style, rtl::AdderStyle::kCarryChain);
  // Design 4: structural shift-add.
  EXPECT_EQ(specs[3].config.adder_style, rtl::AdderStyle::kRippleGates);
  EXPECT_FALSE(specs[3].config.pipelined_operators);
  // Design 5: structural pipelined shift-add.
  EXPECT_EQ(specs[4].config.adder_style, rtl::AdderStyle::kRippleGates);
  EXPECT_TRUE(specs[4].config.pipelined_operators);
}

TEST(Designs, SpecLookupMatchesList) {
  EXPECT_EQ(design_spec(DesignId::kDesign3).name, "Design 3");
  EXPECT_EQ(design_spec(DesignId::kDesign5).description,
            all_designs()[4].description);
}

TEST(Designs, StructuralDesignsHaveNoChains) {
  const BuiltDatapath d4 = build_design(DesignId::kDesign4);
  const rtl::NetlistStats st = rtl::compute_stats(d4.netlist);
  EXPECT_EQ(st.carry_chains, 0u);
  EXPECT_GT(st.gate_cells, 0u);
}

TEST(Designs, BehavioralDesignsUseChains) {
  const BuiltDatapath d2 = build_design(DesignId::kDesign2);
  const rtl::NetlistStats st = rtl::compute_stats(d2.netlist);
  EXPECT_GT(st.carry_chains, 20u);  // ~29 adders in the datapath
}

TEST(Designs, Design1HasPartialProductGates) {
  const BuiltDatapath d1 = build_design(DesignId::kDesign1);
  const BuiltDatapath d2 = build_design(DesignId::kDesign2);
  EXPECT_GT(d1.netlist.cell_count(), 1.5 * d2.netlist.cell_count());
}

TEST(Designs, PipelinedDesignsHaveManyMoreRegisters) {
  const auto r2 = rtl::compute_stats(build_design(DesignId::kDesign2).netlist)
                      .register_bits;
  const auto r3 = rtl::compute_stats(build_design(DesignId::kDesign3).netlist)
                      .register_bits;
  EXPECT_GT(r3, 3 * r2);
}

TEST(Designs, PaperTable3ValuesRecorded) {
  const auto rows = paper_table3();
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[1].area_les, 480);
  EXPECT_DOUBLE_EQ(rows[2].fmax_mhz, 157.0);
  EXPECT_DOUBLE_EQ(rows[4].power_mw_15mhz, 91.4);
  EXPECT_EQ(rows[0].pipeline_stages, 8);
  EXPECT_EQ(rows[4].pipeline_stages, 21);
}

TEST(Designs, NameAndIndexRoundTrip) {
  for (const DesignSpec& spec : all_designs()) {
    EXPECT_EQ(design_name(spec.id), spec.name);
    EXPECT_EQ(design_index(spec.id),
              static_cast<int>(spec.id) + 1);
    ASSERT_TRUE(parse_design(spec.name).has_value());
    EXPECT_EQ(*parse_design(spec.name), spec.id);
    EXPECT_EQ(*parse_design(std::to_string(design_index(spec.id))), spec.id);
  }
}

TEST(Designs, ParseDesignAcceptsEveryToolSpelling) {
  // The spellings the CLIs, benches and registry historically each parsed
  // their own way; the shared seam must keep accepting all of them.
  for (const char* text : {"3", "design3", "Design3", "design-3", "design_3",
                           "design 3", "Design 3", "DESIGN 3"}) {
    ASSERT_TRUE(parse_design(text).has_value()) << text;
    EXPECT_EQ(*parse_design(text), DesignId::kDesign3) << text;
  }
}

TEST(Designs, ParseDesignRejectsGarbage) {
  for (const char* text :
       {"", "0", "6", "design", "design0", "design6", "3x", "design 3x",
        "desig 3", "-3", " 3", "3 "}) {
    EXPECT_FALSE(parse_design(text).has_value()) << "'" << text << "'";
  }
}

TEST(Designs, AdderVariantDesignsCrossPrefixFamily) {
  const auto variants = adder_variant_designs();
  // Designs 2..5 (Design 1 is multiplier-dominated) x the 3 prefix archs.
  ASSERT_EQ(variants.size(), 12u);
  for (const DesignSpec& spec : variants) {
    EXPECT_NE(spec.id, DesignId::kDesign1) << spec.name;
    EXPECT_TRUE(rtl::is_parallel_prefix(spec.config.adder_style)) << spec.name;
    EXPECT_EQ(spec.name, design_point_name(spec.id, spec.config.adder_style));
    EXPECT_NE(spec.description.find(rtl::adder_name(spec.config.adder_style)),
              std::string::npos)
        << spec.name;
  }
}

TEST(Designs, DesignPointNameFormatsOverride) {
  EXPECT_EQ(design_point_name(DesignId::kDesign3, std::nullopt), "Design 3");
  EXPECT_EQ(design_point_name(DesignId::kDesign3, rtl::AdderArch::kBrentKung),
            "Design 3 (brent-kung)");
  EXPECT_EQ(
      design_point_name(DesignId::kDesign5, rtl::AdderArch::kHybridKsBk),
      "Design 5 (hybrid-ksbk)");
}

TEST(Designs, DesignConfigAppliesAdderOverride) {
  const DatapathConfig base = design_config(DesignId::kDesign4);
  EXPECT_EQ(base.adder_style, rtl::AdderArch::kRippleGates);
  const DatapathConfig ks = design_config(DesignId::kDesign4, /*max_octaves=*/1,
                                          rtl::AdderArch::kKoggeStone);
  EXPECT_EQ(ks.adder_style, rtl::AdderArch::kKoggeStone);
  // The override touches only the adder axis.
  EXPECT_EQ(ks.multiplier, base.multiplier);
  EXPECT_EQ(ks.pipelined_operators, base.pipelined_operators);
}

TEST(Designs, PrefixVariantNetlistsAreChainFree) {
  const BuiltDatapath dp = build_lifting_datapath(design_config(
      DesignId::kDesign2, /*max_octaves=*/1, rtl::AdderArch::kHybridKsBk));
  const rtl::NetlistStats st = rtl::compute_stats(dp.netlist);
  EXPECT_EQ(st.carry_chains, 0u);
  EXPECT_GT(st.gate_cells, 0u);
}

TEST(Designs, DesignConfigWidensWithOctaveDepth) {
  const DatapathConfig one = design_config(DesignId::kDesign2, 1);
  const DatapathConfig three = design_config(DesignId::kDesign2, 3);
  EXPECT_GT(three.input_bits, one.input_bits);
  EXPECT_THROW((void)design_config(DesignId::kDesign2, 0),
               std::invalid_argument);
  // Inputs widen 2 bits per octave up to the datapath's 24: nine octaves
  // elaborate, ten are refused with the supported range.
  EXPECT_EQ(build_lifting_datapath(design_config(DesignId::kDesign2, 9))
                .in_even.bits.size(),
            24u);
  for (const int octaves : {10, 16}) {
    try {
      (void)design_config(DesignId::kDesign2, octaves);
      ADD_FAILURE() << octaves << " octaves accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("1..9"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace dwt::hw
