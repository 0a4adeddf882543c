/**
 * @file
 * Byte-for-byte golden regression test for the recovery-cost profile
 * exporters.
 *
 * Replays one campaign repro token (ZSNES under pct:d2:s2, the same
 * cell the trace golden pins) with collectProfile on, and renders the
 * *deterministic axis* — speedscope JSON, folded stacks, the hot-phase
 * table, and the ProfileAgg JSON — against profile.golden.  Wall-clock
 * cells are measured microseconds and deliberately excluded; only the
 * phase/episode attribution is byte-pinned.  Any change to the phase
 * taxonomy, episode bookkeeping, or the exporters shows up as a diff
 * here.
 *
 * Re-bless after an *intentional* change with
 * `obs_profile_golden_test --update`; a mismatch prints a unified diff
 * plus that exact command (tests/support/golden_util.h).
 */
#include <string>

#include <gtest/gtest.h>

#include "apps/harness.h"
#include "explore/campaign.h"
#include "obs/profile/profile_export.h"
#include "support/json.h"
#include "tests/support/golden_util.h"

namespace conair {
namespace {

std::string
goldenPath()
{
    return std::string(GOLDEN_DIR) + "/profile.golden";
}

/** The artifact under test: the hardened-leg profile of one repro
 *  schedule, rendered the same way `conair repro --profile`
 *  renders it (minus the nondeterministic wall cells). */
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
    opts.collectProfile = true;

    explore::ScheduleOutcome o =
        explore::runOneSchedule(target, sched, opts);
    EXPECT_TRUE(o.ran);
    EXPECT_FALSE(o.diverged) << o.divergenceMsg;
    EXPECT_TRUE(o.hasProfile);
    obs::prof::ProfileAgg profile;
    profile.add(o.hardenedStats);

    // The hardened leg must actually recover here, so the golden pins
    // nonzero recovery-tax rendering, not an all-zero table.
    EXPECT_GT(profile.episodes, 0u);
    EXPECT_GT(profile.reexecSteps, 0u);

    obs::prof::ProfileDoc doc;
    doc.phaseGroups.emplace_back("ZSNES pct:d2:s2", profile);

    std::string out;
    out += "=== speedscope ===\n";
    out += obs::prof::speedscopeJson(doc, "ZSNES pct:d2:s2");
    out += "\n=== folded stacks ===\n";
    out += obs::prof::foldedStacks(doc);
    out += "=== hot phases ===\n";
    out += obs::prof::hotPhaseTable(doc);
    out += "=== profile json ===\n";
    JsonWriter w(2);
    profile.writeJson(w);
    out += w.str();
    out += "\n";
    return out;
}

TEST(ProfileGolden, MatchesGoldenFile)
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
