/**
 * @file
 * Byte-for-byte golden regression test for the postmortem diagnosis
 * exporters.
 *
 * Replays ZSNES under pct:d2:s2 (the campaign repro token the
 * acceptance criteria name) in diagnosis recording mode, diagnoses the
 * hardened leg, and pins both the human-readable report (with the
 * ASCII interleaving diagram) and the JSON document against
 * diagnosis.golden.  Any change to the verdict ladder, pair selection,
 * evidence wording, or either exporter shows up as a diff here.
 *
 * Re-bless after an *intentional* change with
 * `obs_diagnosis_golden_test --update`; a mismatch prints a unified
 * diff plus that exact command (tests/support/golden_util.h).
 */
#include <string>

#include <gtest/gtest.h>

#include "apps/harness.h"
#include "explore/campaign.h"
#include "obs/postmortem/diagnosis.h"
#include "obs/trace.h"
#include "tests/support/golden_util.h"

namespace conair {
namespace {

std::string
goldenPath()
{
    return std::string(GOLDEN_DIR) + "/diagnosis.golden";
}

std::string
currentGolden()
{
    const apps::AppSpec *spec = apps::findApp("ZSNES");
    if (!spec)
        return "<ZSNES missing>";
    apps::CampaignApp app = apps::prepareCampaignApp(*spec);
    explore::Target target = apps::campaignTarget(app);

    explore::ScheduleSpec sched;
    EXPECT_TRUE(explore::parseScheduleToken("pct:d2:s2", sched));

    obs::FlightRecorder plainRec(65536), hardRec(65536);
    explore::ScheduleInstruments ins;
    ins.unhardened = &plainRec;
    ins.hardened = &hardRec;
    ins.recordSharedAccesses = true;
    explore::ScheduleOutcome o = explore::runOneSchedule(
        target, sched, explore::CampaignOptions{}, &ins);
    EXPECT_TRUE(o.ran);
    EXPECT_FALSE(o.diverged) << o.divergenceMsg;
    // The schedule must exercise recovery so the golden pins a real
    // episode, not an empty report.
    EXPECT_GT(o.hardenedStats.rollbacks, 0u);

    obs::pm::RecoveryReport rep = obs::pm::diagnose(
        hardRec, *target.hardened, "ZSNES", sched.token());

    std::string out;
    out += "=== text report ===\n";
    out += obs::pm::renderText(rep);
    out += "=== json report ===\n";
    out += obs::pm::toJson(rep);
    out += "\n";
    return out;
}

TEST(DiagnosisGolden, MatchesGoldenFile)
{
    testutil::checkGolden(currentGolden(), goldenPath());
}

} // namespace
} // namespace conair

int
main(int argc, char **argv)
{
    return conair::testutil::goldenMain(argc, argv);
}
