/**
 * @file
 * Golden regression test for guided-vs-blind search efficiency.
 *
 * Pins, for a fixed set of kernels and fixed reduced budgets, the
 * seeds-to-first-failure of the blind pct:d2 matrix against the
 * coverage-guided search: the blind ordinal, the guided ordinal, the
 * first failing schedule's token (change points and all), and the
 * corpus size at the moment the search stopped.  The whole guided
 * pipeline is deterministic and worker-count independent
 * (tests/explore/guided_test.cpp), so these numbers are pure
 * functions of the kernels and the search — any drift means either an
 * intentional search change (re-bless with
 * `guided_golden_test --update`) or an accidental regression in the
 * coverage fold, the mutation operators, or the energy schedule.
 *
 * The last line pins the challenge kernel: Relay3's two-window order
 * violation must stay invisible to the blind pct:d2 probe (blind=-)
 * while guided walks its corpus into the failure within the challenge
 * budget.
 *
 * The golden file lives next to this test (GOLDEN_DIR is injected by
 * CMake).  A mismatch prints a unified diff plus the exact re-bless
 * command (tests/support/golden_util.h).
 */
#include <gtest/gtest.h>

#include "apps/harness.h"
#include "explore/stages.h"
#include "support/str.h"
#include "tests/support/golden_util.h"

namespace conair::explore {
namespace {

std::string
goldenPath()
{
    return std::string(GOLDEN_DIR) + "/guided.golden";
}

/** One guided-vs-blind line.  "blind=-" = the matrix found nothing
 *  within its budget (the challenge shape). */
std::string
guidedLine(const TargetReport &tr)
{
    std::string blind =
        tr.foundFailure
            ? strfmt("%llu", (unsigned long long)
                                 tr.firstFailureScheduleOrdinal)
            : "-";
    const GuidedSummary &gs = tr.guided;
    if (!gs.foundFailure)
        return strfmt("%s blind=%s guided=- corpus=%llu",
                      tr.name.c_str(), blind.c_str(),
                      (unsigned long long)gs.corpusEntries);
    return strfmt("%s blind=%s guided=%llu first=%s corpus=%llu",
                  tr.name.c_str(), blind.c_str(),
                  (unsigned long long)gs.seedsToFirstFailure,
                  gs.firstFailure.token().c_str(),
                  (unsigned long long)gs.corpusEntries);
}

CampaignReport
runGuidedCampaign(const std::vector<std::string> &names, unsigned seeds,
                  uint64_t budget)
{
    std::vector<apps::CampaignApp> prepared;
    std::vector<Target> targets;
    for (const std::string &n : names) {
        const apps::AppSpec *spec = apps::findApp(n);
        EXPECT_NE(spec, nullptr) << n;
        prepared.push_back(apps::prepareCampaignApp(*spec));
    }
    for (const apps::CampaignApp &app : prepared)
        targets.push_back(apps::campaignTarget(app));

    CampaignOptions opts;
    opts.policies = {{vm::SchedPolicy::Pct, 2}};
    opts.seedsPerPolicy = seeds;
    opts.stopAfterFailures = 1;
    opts.maxSteps = 2'000'000;
    GuidedOptions g;
    g.budget = budget;
    CampaignReport rep = runCampaign(targets, opts);
    guidedStage(targets, opts, g, "", rep);
    return rep;
}

std::string
currentGolden()
{
    // Reduced fixed budgets: blind pct:d2 x 32 seeds, guided budget
    // 96 — enough for every kernel here, small enough for the quick
    // label.  The challenge kernel gets the real probe shape (60
    // blind seeds, the 250-schedule challenge budget).
    std::string text = "blind pct:d2 x 32 seeds, guided budget 96\n";
    CampaignReport rep = runGuidedCampaign(
        {"FFT", "HTTrack", "MozillaJS", "Transmission", "SQLite",
         "ZSNES"},
        32, 96);
    for (const TargetReport &tr : rep.targets)
        text += guidedLine(tr) + "\n";

    text += "challenge: blind pct:d2 x 60 seeds, guided budget 250\n";
    CampaignReport crep = runGuidedCampaign({"Relay3"}, 60, 250);
    for (const TargetReport &tr : crep.targets)
        text += guidedLine(tr) + "\n";
    return text;
}

TEST(GuidedGolden, SeedsToFirstFailureMatchCheckedInNumbers)
{
    // Each golden line is one kernel, so the unified diff printed on
    // a mismatch names the drifted kernel directly.
    testutil::checkGolden(currentGolden(), goldenPath());
}

} // namespace
} // namespace conair::explore

int
main(int argc, char **argv)
{
    return conair::testutil::goldenMain(argc, argv);
}
