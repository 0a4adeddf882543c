/**
 * @file
 * The exhaustive regression proof (full label): for every one of the
 * ten kernels, the synthesized fix survives the paper-scale campaign
 * matrix — 250 seeds per (policy, depth) entry, the Reference
 * differential oracle armed — with zero failing schedules,
 * zero deadlock schedules, zero cross-engine divergences, the
 * minimised failing replay no longer reproducing, and clean-run
 * overhead within the 1.3x acceptance bound.
 */
#include <gtest/gtest.h>

#include "fix/fix.h"
#include "fix/validate.h"
#include "tests/fix/fix_test_util.h"

namespace conair::fixtest {
namespace {

class FixValidateFull : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FixValidateFull, PatchIsRegressionFreeAtCampaignScale)
{
    ScriptedFailure sf;
    std::string err;
    ASSERT_TRUE(
        recordScriptedFailure(GetParam(), /*wantLog=*/true, sf, err))
        << err;
    fix::FixPlan plan = fix::synthesizeFix(*sf.target.plain, sf.report);
    ASSERT_TRUE(plan.ok) << plan.error;

    fix::ValidationOptions vopts;
    vopts.campaign.seedsPerPolicy = 250;
    vopts.campaign.workers = 4;
    vopts.cleanConfig = sf.app.spec->cleanConfig;
    fix::ValidationResult val =
        fix::validatePatch(*plan.patched, sf.target, &sf.log, vopts);

    EXPECT_TRUE(val.ok()) << val.error;
    EXPECT_TRUE(val.replayChecked);
    EXPECT_TRUE(val.replayFailureGone) << val.replayDetail;
    EXPECT_TRUE(val.campaignRan);
    EXPECT_EQ(val.schedules,
              vopts.campaign.seedsPerPolicy *
                  vopts.campaign.policies.size());
    EXPECT_EQ(val.failing, 0u);
    EXPECT_EQ(val.deadlocks, 0u);
    EXPECT_EQ(val.divergences, 0u);
    EXPECT_TRUE(val.overheadOk);
    EXPECT_LE(val.overhead, 1.3);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, FixValidateFull,
    ::testing::Values("FFT", "HawkNL", "HTTrack", "MozillaXP",
                      "MozillaJS", "MySQL1", "MySQL2", "Transmission",
                      "SQLite", "ZSNES"),
    [](const auto &info) { return info.param; });

} // namespace
} // namespace conair::fixtest
