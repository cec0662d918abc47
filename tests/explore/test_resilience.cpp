#include "explore/resilience.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

namespace dwt::explore {
namespace {

ResilienceOptions small_campaign(hw::DesignId design,
                                 rtl::HardeningStyle harden) {
  ResilienceOptions opt;
  opt.design = design;
  opt.kinds = {rtl::FaultKind::kSeuFlip};
  opt.trials = 12;
  opt.seed = 99;
  opt.samples = 16;
  opt.harden = harden;
  return opt;
}

TEST(Resilience, CampaignIsDeterministic) {
  const ResilienceOptions opt =
      small_campaign(hw::DesignId::kDesign2, rtl::HardeningStyle::kNone);
  const CampaignResult a = run_campaign(opt);
  const CampaignResult b = run_campaign(opt);
  EXPECT_EQ(to_json(a), to_json(b));
  EXPECT_EQ(a.trials_run, opt.trials);
  EXPECT_EQ(a.masked + a.detected + a.sdc, a.trials_run);
  EXPECT_EQ(a.detected, 0u);  // no detection logic without hardening
}

TEST(Resilience, TmrDesign1MasksEverySampledSeu) {
  ResilienceOptions opt =
      small_campaign(hw::DesignId::kDesign1, rtl::HardeningStyle::kTmr);
  opt.trials = 20;
  const CampaignResult r = run_campaign(opt);
  EXPECT_EQ(r.masked, r.trials_run);
  EXPECT_EQ(r.sdc, 0u);
  EXPECT_EQ(r.corrupted, 0u);
  for (const FaultTrial& t : r.trials) {
    EXPECT_EQ(t.outcome, FaultOutcome::kMasked);
    EXPECT_EQ(t.max_abs_error, 0);  // bit-identical output
    EXPECT_TRUE(std::isinf(t.psnr_db));
  }
  // The hardening cost is priced by the same mapper/STA as Table 3.
  EXPECT_GT(r.hardened.logic_elements, r.baseline.logic_elements);
  EXPECT_EQ(r.harden_report.added_ffs, 2 * r.harden_report.protected_ffs);
}

TEST(Resilience, ParityDetectsEverySampledSeu) {
  const CampaignResult r = run_campaign(
      small_campaign(hw::DesignId::kDesign2, rtl::HardeningStyle::kParity));
  EXPECT_EQ(r.detected, r.trials_run);  // detection, not correction
  EXPECT_EQ(r.sdc, 0u);
  EXPECT_GT(r.harden_report.parity_groups, 0u);
  EXPECT_GT(r.hardened.ff_count, r.baseline.ff_count);
}

TEST(Resilience, AdderOverrideChangesFaultSpaceNotMachinery) {
  // The (design x adder) axis: a prefix-adder campaign runs on a different
  // netlist (different fault space, different design-point name) but the
  // classification machinery stays deterministic and engine-agnostic.
  ResilienceOptions opt =
      small_campaign(hw::DesignId::kDesign2, rtl::HardeningStyle::kNone);
  opt.adder = rtl::AdderArch::kKoggeStone;
  const CampaignResult a = run_campaign(opt);
  const CampaignResult b = run_campaign(opt);
  EXPECT_EQ(to_json(a), to_json(b));
  EXPECT_EQ(a.spec.name, "Design 2 (kogge-stone)");
  EXPECT_EQ(a.trials_run, opt.trials);
  EXPECT_EQ(a.masked + a.detected + a.sdc, a.trials_run);
  ResilienceOptions interp = opt;
  interp.engine = CampaignEngine::kInterpreted;
  EXPECT_EQ(to_json(run_campaign(interp)), to_json(a));
  // The paper realization draws a different schedule (different nets).
  const CampaignResult base = run_campaign(
      small_campaign(hw::DesignId::kDesign2, rtl::HardeningStyle::kNone));
  EXPECT_NE(to_json(base), to_json(a));
}

TEST(Resilience, AdderVariantHardensLikeTheBaseDesign) {
  // Parity hardening is architecture-agnostic: it must detect every sampled
  // SEU on a brent-kung netlist exactly as it does on the paper's.
  ResilienceOptions opt =
      small_campaign(hw::DesignId::kDesign2, rtl::HardeningStyle::kParity);
  opt.adder = rtl::AdderArch::kBrentKung;
  const CampaignResult r = run_campaign(opt);
  EXPECT_EQ(r.detected, r.trials_run);
  EXPECT_EQ(r.sdc, 0u);
  EXPECT_GT(r.harden_report.parity_groups, 0u);
}

TEST(Resilience, PointCarriesSdcAxisIntoTradeoffSpace) {
  const CampaignResult r = run_campaign(
      small_campaign(hw::DesignId::kDesign2, rtl::HardeningStyle::kNone));
  const TradeoffPoint p = resilience_point(r);
  EXPECT_GT(p.area_les, 0.0);
  EXPECT_GT(p.period_ns, 0.0);
  EXPECT_DOUBLE_EQ(p.sdc_rate, r.sdc_rate());
}

TEST(Resilience, CompiledAndInterpretedEnginesProduceIdenticalReports) {
  ResilienceOptions opt =
      small_campaign(hw::DesignId::kDesign3, rtl::HardeningStyle::kParity);
  opt.kinds = {rtl::FaultKind::kSeuFlip, rtl::FaultKind::kStuckAt0,
               rtl::FaultKind::kGlitch};
  opt.keep_trials = true;
  opt.engine = CampaignEngine::kCompiled;
  const CampaignResult compiled = run_campaign(opt);
  opt.engine = CampaignEngine::kInterpreted;
  const CampaignResult interpreted = run_campaign(opt);
  EXPECT_EQ(to_json(compiled), to_json(interpreted));
  EXPECT_EQ(compiled.masked, interpreted.masked);
  EXPECT_EQ(compiled.detected, interpreted.detected);
  EXPECT_EQ(compiled.sdc, interpreted.sdc);
  ASSERT_EQ(compiled.trials.size(), interpreted.trials.size());
  for (std::size_t i = 0; i < compiled.trials.size(); ++i) {
    EXPECT_EQ(compiled.trials[i].outcome, interpreted.trials[i].outcome) << i;
    EXPECT_EQ(compiled.trials[i].max_abs_error,
              interpreted.trials[i].max_abs_error)
        << i;
  }
}

TEST(Resilience, ThreadCountDoesNotChangeCompiledCampaign) {
  ResilienceOptions opt =
      small_campaign(hw::DesignId::kDesign2, rtl::HardeningStyle::kNone);
  opt.trials = 600;  // three 256-lane batches for the pool to share
  opt.engine = CampaignEngine::kCompiled;
  opt.threads = 1;
  const CampaignResult serial = run_campaign(opt);
  opt.threads = 4;
  const CampaignResult pooled = run_campaign(opt);
  EXPECT_EQ(to_json(serial), to_json(pooled));
}

// Golden-trace replay (ResilienceOptions::cone) is a throughput knob: on
// pipelines of every depth, hardened or not, each report is byte-identical
// with replay on and off, trial list included, across batch boundaries.
TEST(Resilience, GoldenReplayDoesNotChangeReport) {
  for (const hw::DesignId design : {hw::DesignId::kDesign1,
                                    hw::DesignId::kDesign3,
                                    hw::DesignId::kDesign5}) {
    for (const rtl::HardeningStyle harden :
         {rtl::HardeningStyle::kNone, rtl::HardeningStyle::kTmr,
          rtl::HardeningStyle::kParity}) {
      ResilienceOptions opt = small_campaign(design, harden);
      opt.kinds = {rtl::FaultKind::kSeuFlip, rtl::FaultKind::kGlitch,
                   rtl::FaultKind::kStuckAt0, rtl::FaultKind::kStuckAt1};
      opt.trials = 700;  // three 256-lane batches, the last one partial
      opt.keep_trials = true;
      opt.engine = CampaignEngine::kCompiled;
      opt.cone = false;
      const std::string want = to_json(run_campaign(opt));
      opt.cone = true;
      EXPECT_EQ(to_json(run_campaign(opt)), want)
          << "design " << static_cast<int>(design) << " harden "
          << rtl::to_string(harden);
    }
  }
}

TEST(Resilience, RejectsDegenerateOptions) {
  ResilienceOptions opt =
      small_campaign(hw::DesignId::kDesign2, rtl::HardeningStyle::kNone);
  opt.trials = 0;
  EXPECT_THROW(run_campaign(opt), std::invalid_argument);
  opt.trials = 1;
  opt.samples = 7;
  EXPECT_THROW(run_campaign(opt), std::invalid_argument);
  opt.samples = 16;
  opt.kinds.clear();
  EXPECT_THROW(run_campaign(opt), std::invalid_argument);
}

}  // namespace
}  // namespace dwt::explore
