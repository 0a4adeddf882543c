/**
 * @file
 * Golden regression test for the patch report, text and JSON.
 *
 * The synthesis half is rendered live: ZSNES's campaign schedule
 * pct:d2:s2 (the rediscovered first failure the exploration bench
 * reports) is recorded, diagnosed, and fixed — the VM is
 * deterministic, so the report is byte-stable.  The validation half
 * is rendered from hand-built ValidationResult fixtures (one
 * VALIDATED, one NOT VALIDATED) so the golden pins the full format
 * without re-running a campaign.  Re-bless with `--update`.
 */
#include <gtest/gtest.h>

#include "apps/harness.h"
#include "explore/campaign.h"
#include "fix/fix.h"
#include "fix/report.h"
#include "fix/validate.h"
#include "obs/postmortem/diagnosis.h"
#include "tests/support/golden_util.h"
#include "vm/interp.h"

namespace conair::fixtest {
namespace {

fix::FixPlan
synthesizeZsnesFix()
{
    const apps::AppSpec *spec = apps::findApp("ZSNES");
    EXPECT_NE(spec, nullptr);
    static apps::CampaignApp app = apps::prepareCampaignApp(*spec);
    explore::Target target = apps::campaignTarget(app);

    explore::ScheduleSpec s;
    std::string tokErr;
    EXPECT_TRUE(explore::parseScheduleToken("pct:d2:s2", s, tokErr))
        << tokErr;

    // Diagnosis-grade recording of the hardened leg (recovery lets
    // the racing partner land in the trace; the unhardened leg dies
    // at the assert first).
    obs::FlightRecorder rec(4096, obs::RecorderMode::Grow);
    vm::VmConfig cfg =
        explore::makeBaseConfig(target, s, explore::CampaignOptions{});
    cfg.recorder = &rec;
    cfg.recordSharedAccesses = true;
    vm::runProgram(*target.hardened, cfg);
    obs::pm::RecoveryReport rep = obs::pm::diagnose(
        rec, *target.hardened, "ZSNES", s.token());
    return fix::synthesizeFix(*target.plain, rep);
}

TEST(FixReportGolden, TextAndJsonMatchTheGolden)
{
    fix::FixPlan plan = synthesizeZsnesFix();
    ASSERT_TRUE(plan.ok) << plan.error;

    fix::ValidationResult good;
    good.replayChecked = true;
    good.replayFailureGone = true;
    good.replayDetail = "success";
    good.campaignRan = true;
    good.schedules = 1000;
    good.failing = 0;
    good.deadlocks = 0;
    good.divergences = 0;
    good.inconclusive = 2;
    good.overheadChecked = true;
    good.overhead = 1.0421;
    good.overheadOk = true;

    fix::ValidationResult bad;
    bad.replayChecked = true;
    bad.replayFailureGone = false;
    bad.replayDetail = "assert-fail (assert.sound_thread.59)";
    bad.campaignRan = true;
    bad.schedules = 1000;
    bad.failing = 3;
    bad.overheadChecked = true;
    bad.overhead = 1.0421;
    bad.overheadOk = true;
    bad.error = "minimized replay still fails on the patched build: "
                "assert-fail (assert.sound_thread.59)";

    std::string artifact;
    artifact += "================ patch report (text) ================\n";
    artifact += fix::renderPatchText(plan);
    artifact += "========== patch report (text, validated) ==========\n";
    artifact += fix::renderPatchText(plan, &good);
    artifact += "======== patch report (text, not validated) ========\n";
    artifact += fix::renderPatchText(plan, &bad);
    artifact += "================ patch report (json) ================\n";
    artifact += fix::patchToJson(plan, &good);
    artifact += "\n";

    testutil::checkGolden(artifact,
                          std::string(GOLDEN_DIR) +
                              "/fix_report.golden");
}

} // namespace
} // namespace conair::fixtest

int
main(int argc, char **argv)
{
    return conair::testutil::goldenMain(argc, argv);
}
