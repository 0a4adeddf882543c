/**
 * @file
 * Byte-for-byte golden regression test for the Chrome trace exporter.
 *
 * Replays one campaign repro token (ZSNES under pct:d2:s2 — a failing
 * schedule whose hardened leg recovers, the same cell `conair repro`
 * exercises) with flight recorders on both Fused legs,
 * renders the two-process Chrome trace JSON plus the recovery
 * timeline, and compares against trace.golden byte for byte.
 * Any change to event ordering, payload encoding, timestamp formatting,
 * or the exporters themselves shows up as a diff here.
 *
 * Re-bless after an *intentional* format change with
 * `obs_trace_golden_test --update`; a mismatch prints a unified diff
 * plus that exact command (tests/support/golden_util.h).
 */
#include <string>

#include <gtest/gtest.h>

#include "apps/harness.h"
#include "explore/campaign.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "tests/support/golden_util.h"

namespace conair {
namespace {

std::string
goldenPath()
{
    return std::string(GOLDEN_DIR) + "/trace.golden";
}

/** The artifact under test: both legs of one repro replay, rendered
 *  the same way `conair repro --trace` renders them, plus the
 *  human-readable timeline of the hardened leg. */
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

    explore::CampaignOptions opts;
    opts.maxSteps = 4'000'000;
    opts.collectMetrics = true;

    // Small rings keep the golden file reviewable; dropped events are
    // part of the pinned output (totals still cover them).
    obs::FlightRecorder plainRec(256), hardRec(256);
    explore::ScheduleInstruments ins;
    ins.unhardened = &plainRec;
    ins.hardened = &hardRec;
    explore::ScheduleOutcome o =
        explore::runOneSchedule(target, sched, opts, &ins);
    EXPECT_TRUE(o.ran);
    EXPECT_FALSE(o.diverged) << o.divergenceMsg;

    // The hardened leg must actually recover here, so the golden file
    // pins recovery-episode rendering, not just checkpoints.
    EXPECT_GT(o.hardenedStats.rollbacks, 0u);
    EXPECT_TRUE(o.hardenedCorrect);

    std::string json = obs::chromeTraceJson(
        {{&plainRec, "ZSNES unhardened pct:d2:s2", 1},
         {&hardRec, "ZSNES hardened pct:d2:s2", 2}});
    std::string out;
    out += "=== chrome trace (two processes) ===\n";
    out += json;
    out += "\n=== hardened recovery timeline ===\n";
    out += obs::recoveryTimeline(hardRec);
    out += "=== hardened metrics ===\n";
    out += o.metrics.toJson();
    out += "\n";
    return out;
}

TEST(TraceGolden, MatchesGoldenFile)
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
