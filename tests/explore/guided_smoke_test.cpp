/**
 * @file
 * Quick-label guided-exploration smoke: a two-kernel guided campaign
 * small enough for `ctest -L quick` — the guided pass runs, admits a
 * corpus, rediscovers both failures, and stays clean under the engine
 * and recovery oracles.  The heavy property and worker-independence
 * tests live in guided_test.cpp (full label).
 */
#include <gtest/gtest.h>

#include "apps/harness.h"
#include "explore/stages.h"
#include "explore/telemetry.h"

namespace conair::explore {
namespace {

TEST(GuidedSmoke, TwoKernelGuidedCampaign)
{
    std::vector<apps::CampaignApp> prepared;
    std::vector<Target> targets;
    for (const char *name : {"ZSNES", "HTTrack"}) {
        const apps::AppSpec *spec = apps::findApp(name);
        ASSERT_NE(spec, nullptr) << name;
        prepared.push_back(apps::prepareCampaignApp(*spec));
        targets.push_back(apps::campaignTarget(prepared.back()));
    }

    CampaignOptions opts;
    opts.seedsPerPolicy = 4;
    opts.policies = {{vm::SchedPolicy::Pct, 2}};
    opts.maxSteps = 2'000'000;
    GuidedOptions g;
    g.budget = 16;

    CampaignTelemetry tel(opts.workers);
    opts.telemetry = &tel;
    CampaignReport rep = runCampaign(targets, opts);
    guidedStage(targets, opts, g, "", rep);
    EXPECT_EQ(rep.divergences, 0u);
    EXPECT_EQ(rep.unrecovered, 0u);

    // The live telemetry surfaces the guided pass: /status carries the
    // corpus size and mutation yield, /metrics the guided gauges.
    std::string status = tel.statusJson();
    EXPECT_NE(status.find("\"guided\""), std::string::npos);
    EXPECT_NE(status.find("\"corpus_entries\""), std::string::npos);
    EXPECT_NE(status.find("\"mutation_yield\""), std::string::npos);
    std::string prom = tel.prometheusText();
    EXPECT_NE(prom.find("conair_guided_corpus_entries"),
              std::string::npos);
    EXPECT_NE(prom.find("conair_guided_mutations_tried"),
              std::string::npos);
    EXPECT_NE(prom.find("conair_guided_fresh_tried"),
              std::string::npos);

    ASSERT_EQ(rep.targets.size(), 2u);
    for (const TargetReport &tr : rep.targets) {
        ASSERT_TRUE(tr.hasGuided) << tr.name;
        EXPECT_EQ(tr.guided.budget, g.budget) << tr.name;
        EXPECT_GT(tr.guided.schedules, 0u) << tr.name;
        EXPECT_GT(tr.guided.corpusEntries, 0u) << tr.name;
        EXPECT_NE(tr.guided.corpusDigest, 0u) << tr.name;
        // Both kernels fail under shallow pct, so guided (which stops
        // at the first failure) must rediscover them within the tiny
        // budget.
        EXPECT_TRUE(tr.guided.foundFailure) << tr.name;
        EXPECT_GE(tr.guided.seedsToFirstFailure, 1u) << tr.name;
        EXPECT_LE(tr.guided.seedsToFirstFailure, tr.guided.schedules)
            << tr.name;
        EXPECT_TRUE(tr.guided.error.empty()) << tr.guided.error;
    }
}

} // namespace
} // namespace conair::explore
