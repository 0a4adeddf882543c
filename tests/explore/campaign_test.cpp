/**
 * @file
 * The schedule-exploration campaign engine: token round-trips, the
 * campaign matrix (determinism, worker-count independence, oracle
 * bookkeeping) and chaos-injection determinism on real kernels.
 */
#include <gtest/gtest.h>

#include "apps/harness.h"
#include "explore/campaign.h"
#include "explore/telemetry.h"

namespace conair::explore {
namespace {

TEST(ScheduleToken, RoundTrips)
{
    const ScheduleSpec specs[] = {
        {vm::SchedPolicy::Pct, 17, 3},
        {vm::SchedPolicy::Pct, 1, 2},
        {vm::SchedPolicy::PreemptBound, 5, 2},
        {vm::SchedPolicy::Random, 9, 0},
        {vm::SchedPolicy::RoundRobin, 2, 0},
    };
    for (const ScheduleSpec &s : specs) {
        ScheduleSpec parsed;
        ASSERT_TRUE(parseScheduleToken(s.token(), parsed)) << s.token();
        EXPECT_EQ(parsed, s) << s.token();
    }
}

TEST(ScheduleToken, RejectsMalformedTokens)
{
    ScheduleSpec s;
    EXPECT_FALSE(parseScheduleToken("", s));
    EXPECT_FALSE(parseScheduleToken("pct", s));          // no seed
    EXPECT_FALSE(parseScheduleToken("pct:d3", s));       // no seed
    EXPECT_FALSE(parseScheduleToken("pct:s1", s));       // no depth
    EXPECT_FALSE(parseScheduleToken("warp:d1:s1", s));   // bad policy
    EXPECT_FALSE(parseScheduleToken("pct:d3:s1x", s));   // trailing junk
    EXPECT_FALSE(parseScheduleToken("pct:d:s1", s));     // empty number
}

TEST(ScheduleToken, AppliesToConfig)
{
    ScheduleSpec s{vm::SchedPolicy::Pct, 41, 4};
    vm::VmConfig cfg;
    s.applyTo(cfg);
    EXPECT_EQ(cfg.policy, vm::SchedPolicy::Pct);
    EXPECT_EQ(cfg.seed, 41u);
    EXPECT_EQ(cfg.pctDepth, 4u);
}

/** The legs forEachWallSpan counts for @p o under @p opts, by name. */
std::vector<std::string>
countedLegs(const ScheduleOutcome &o, const CampaignOptions &opts)
{
    std::vector<std::string> legs;
    forEachWallSpan(o, opts, [&](size_t leg, uint64_t) {
        legs.push_back(kWallLegs[leg]);
    });
    return legs;
}

TEST(WallSpans, OneRuleDecidesWhichLegsCount)
{
    using Legs = std::vector<std::string>;
    CampaignOptions opts;
    opts.collectProfile = true;
    ScheduleOutcome o;
    o.ran = true;
    // A target without a hardened build: the plain leg and its replica.
    EXPECT_EQ(countedLegs(o, opts), (Legs{"unhardened", "differential"}));
    o.hardenedRan = true;
    EXPECT_EQ(countedLegs(o, opts),
              (Legs{"unhardened", "differential", "hardened",
                    "hardened_diff"}));
    // Chaos and divergence skip the hardened replica.
    o.chaos = true;
    EXPECT_EQ(countedLegs(o, opts),
              (Legs{"unhardened", "differential", "hardened"}));
    o.chaos = false;
    o.diverged = true;
    EXPECT_EQ(countedLegs(o, opts),
              (Legs{"unhardened", "differential", "hardened"}));
    o.diverged = false;
    // Without the differential no replica ran, however long it took.
    opts.differential = false;
    o.wallDifferentialUs = 5;
    EXPECT_EQ(countedLegs(o, opts), (Legs{"unhardened", "hardened"}));
    // Nothing was timed: a skipped schedule, or profiling off.
    o.ran = false;
    EXPECT_TRUE(countedLegs(o, opts).empty());
    o.ran = true;
    opts.collectProfile = false;
    EXPECT_TRUE(countedLegs(o, opts).empty());
}

//
// Campaign matrix on real kernels.  Small seed counts keep this in
// tier-1 time budgets; bench_explore runs the full-scale version.
//

class CampaignFixture : public ::testing::Test
{
  protected:
    static CampaignOptions
    smallOptions()
    {
        CampaignOptions opts;
        opts.seedsPerPolicy = 10;
        opts.workers = 4;
        opts.maxSteps = 2'000'000;
        return opts;
    }

    static std::vector<Target>
    targetsFor(const std::vector<apps::CampaignApp> &prepared)
    {
        std::vector<Target> ts;
        for (const apps::CampaignApp &a : prepared)
            ts.push_back(apps::campaignTarget(a));
        return ts;
    }

    static std::vector<apps::CampaignApp>
    prepare(std::initializer_list<const char *> names)
    {
        std::vector<apps::CampaignApp> apps_;
        for (const char *n : names) {
            const apps::AppSpec *spec = apps::findApp(n);
            EXPECT_NE(spec, nullptr) << n;
            apps_.push_back(apps::prepareCampaignApp(*spec));
        }
        return apps_;
    }
};

TEST_F(CampaignFixture, ReportIsIndependentOfWorkerCount)
{
    auto prepared = prepare({"MySQL1", "HawkNL"});
    auto targets = targetsFor(prepared);

    CampaignOptions opts = smallOptions();
    opts.collectMetrics = true;
    opts.workers = 1;
    CampaignReport serial = runCampaign(targets, opts);
    opts.workers = 4;
    CampaignReport parallel = runCampaign(targets, opts);

    ASSERT_EQ(serial.targets.size(), parallel.targets.size());
    EXPECT_EQ(serial.schedules, parallel.schedules);
    for (size_t i = 0; i < serial.targets.size(); ++i) {
        const TargetReport &a = serial.targets[i];
        const TargetReport &b = parallel.targets[i];
        EXPECT_EQ(a.failingSchedules, b.failingSchedules) << a.name;
        EXPECT_EQ(a.inconclusive, b.inconclusive) << a.name;
        EXPECT_EQ(a.failureTags, b.failureTags) << a.name;
        EXPECT_EQ(a.foundFailure, b.foundFailure) << a.name;
        EXPECT_EQ(a.firstFailure, b.firstFailure) << a.name;
        EXPECT_EQ(a.divergences, b.divergences) << a.name;
        EXPECT_EQ(a.unrecovered, b.unrecovered) << a.name;
        EXPECT_EQ(a.totalSteps, b.totalSteps) << a.name;
        EXPECT_EQ(a.chaosRollbacks, b.chaosRollbacks) << a.name;
        // Metrics are merged in matrix order during aggregation, so
        // the per-policy registries are worker-count independent too.
        ASSERT_EQ(a.policyMetrics.size(), opts.policies.size())
            << a.name;
        EXPECT_EQ(a.policyMetrics, b.policyMetrics) << a.name;
        for (size_t pi = 0; pi < a.policyMetrics.size(); ++pi)
            EXPECT_EQ(a.policyMetrics[pi].second.toJson(),
                      b.policyMetrics[pi].second.toJson())
                << a.name << " " << a.policyMetrics[pi].first;
    }
}

TEST_F(CampaignFixture, CoverageIsIndependentOfWorkerCount)
{
    // The interleaving-coverage digest is FNV-1a over *sorted* edge
    // keys — a set-union invariant — so any partition of the same
    // schedule matrix over any number of workers must agree exactly,
    // per target and in the live telemetry map.
    auto prepared = prepare({"ZSNES", "Transmission"});
    auto targets = targetsFor(prepared);

    CampaignOptions opts = smallOptions();
    opts.collectCoverage = true;

    CampaignTelemetry serialTel;
    opts.workers = 1;
    opts.telemetry = &serialTel;
    CampaignReport serial = runCampaign(targets, opts);

    CampaignTelemetry parallelTel(4);
    opts.workers = 4;
    opts.telemetry = &parallelTel;
    CampaignReport parallel = runCampaign(targets, opts);

    ASSERT_EQ(serial.targets.size(), parallel.targets.size());
    for (size_t i = 0; i < serial.targets.size(); ++i) {
        const TargetReport &a = serial.targets[i];
        const TargetReport &b = parallel.targets[i];
        ASSERT_TRUE(a.hasCoverage) << a.name;
        ASSERT_TRUE(b.hasCoverage) << b.name;
        EXPECT_GT(a.coverageDistinctEdges, 0u) << a.name;
        EXPECT_EQ(a.coverageDistinctEdges, b.coverageDistinctEdges)
            << a.name;
        EXPECT_EQ(a.coverageDigest, b.coverageDigest) << a.name;
        EXPECT_EQ(a.coverageNovelSchedules, b.coverageNovelSchedules)
            << a.name;
        EXPECT_EQ(a.coverageGrowth, b.coverageGrowth) << a.name;
        EXPECT_EQ(a.coverageEdgesAtFirstFailure,
                  b.coverageEdgesAtFirstFailure)
            << a.name;
    }

    // The live map accumulates the union over all targets; its digest
    // must agree between the two runs too.
    EXPECT_GT(serialTel.coverage().distinctEdges(), 0u);
    EXPECT_EQ(serialTel.coverage().digest(),
              parallelTel.coverage().digest());
    EXPECT_EQ(serialTel.coverage().distinctEdges(),
              parallelTel.coverage().distinctEdges());
    EXPECT_EQ(serialTel.schedulesDone(), parallel.schedules);

    // The telemetry renderers produce the documented shapes.
    std::string status = parallelTel.statusJson();
    EXPECT_NE(status.find("\"schedules_done\""), std::string::npos);
    EXPECT_NE(status.find("\"distinct_edges\""), std::string::npos);
    std::string prom = parallelTel.prometheusText();
    EXPECT_NE(prom.find("conair_coverage_distinct_edges"),
              std::string::npos);
    std::string covDump = parallelTel.coverageJson();
    EXPECT_NE(covDump.find("\"digest\""), std::string::npos);
    EXPECT_NE(covDump.find("\"edges\""), std::string::npos);
}

TEST_F(CampaignFixture, ProfileIsIndependentOfWorkerCount)
{
    // The recovery-cost profile is folded per (target, policy) in
    // matrix order, so the deterministic axis — phase ticks, episode
    // counts, the whole recovery tax — must be identical for any
    // worker count.  Wall-clock cells are measured micros and thus
    // excluded, but their *shape* (cell set, span counts) is not.
    auto prepared = prepare({"MySQL1", "ZSNES"});
    auto targets = targetsFor(prepared);

    CampaignOptions opts = smallOptions();
    opts.collectProfile = true;
    opts.workers = 1;
    CampaignReport serial = runCampaign(targets, opts);
    opts.workers = 4;
    CampaignReport parallel = runCampaign(targets, opts);

    ASSERT_EQ(serial.targets.size(), parallel.targets.size());
    uint64_t episodes = 0, reexec = 0;
    for (size_t i = 0; i < serial.targets.size(); ++i) {
        const TargetReport &a = serial.targets[i];
        const TargetReport &b = parallel.targets[i];
        ASSERT_TRUE(a.hasProfile) << a.name;
        ASSERT_TRUE(b.hasProfile) << b.name;

        EXPECT_GT(a.profile.runs, 0u) << a.name;
        episodes += a.profile.episodes;
        reexec += a.profile.reexecSteps;

        EXPECT_EQ(a.profile, b.profile) << a.name;
        ASSERT_EQ(a.policyProfiles.size(), opts.policies.size())
            << a.name;
        EXPECT_EQ(a.policyProfiles, b.policyProfiles) << a.name;

        // The target-wide aggregate is exactly the sum of the policy
        // cells.
        obs::prof::ProfileAgg summed;
        for (const auto &[label, agg] : a.policyProfiles)
            summed.merge(agg);
        EXPECT_EQ(summed, a.profile) << a.name;

        // Wall cells: same (policy, leg) set with the same span
        // counts, whatever the measured micros were.
        ASSERT_EQ(a.wall.size(), b.wall.size()) << a.name;
        for (size_t wi = 0; wi < a.wall.size(); ++wi) {
            EXPECT_EQ(a.wall[wi].kernel, b.wall[wi].kernel);
            EXPECT_EQ(a.wall[wi].policy, b.wall[wi].policy);
            EXPECT_EQ(a.wall[wi].leg, b.wall[wi].leg);
            EXPECT_EQ(a.wall[wi].spans, b.wall[wi].spans)
                << a.name << " " << a.wall[wi].policy << " "
                << a.wall[wi].leg;
        }
    }
    // The matrix really paid a recovery tax somewhere (ZSNES trips
    // within the first couple of PCT seeds), so the equality checks
    // above compared nonzero profiles, not all-zero ones.
    EXPECT_GT(episodes, 0u);
    EXPECT_GT(reexec, 0u);
}

TEST_F(CampaignFixture, OraclesHoldOnRealKernels)
{
    // Order-violation kernels trip on priority orderings alone, so a
    // small matrix still exercises failing schedules end to end.
    auto prepared = prepare({"HTTrack", "ZSNES"});
    auto targets = targetsFor(prepared);

    CampaignReport rep = runCampaign(targets, smallOptions());
    EXPECT_EQ(rep.divergences, 0u) << rep.summary();
    EXPECT_EQ(rep.unrecovered, 0u) << rep.summary();
    EXPECT_GT(rep.schedules, 0u);
    // Schedules with chaos injection on the hardened leg really ran.
    uint64_t chaosRuns = 0;
    for (const TargetReport &tr : rep.targets)
        chaosRuns += tr.chaosRuns;
    EXPECT_GT(chaosRuns, 0u);
}

TEST_F(CampaignFixture, FusedDifferentialHoldsOnAllKernels)
{
    // The Reference replica referees the production Fused legs on
    // every schedule: run the whole Table 2 registry and require zero
    // divergence.
    std::vector<apps::CampaignApp> prepared;
    for (const apps::AppSpec &spec : apps::allApps())
        prepared.push_back(apps::prepareCampaignApp(spec));
    auto targets = targetsFor(prepared);

    CampaignOptions opts = smallOptions();
    opts.seedsPerPolicy = 3;
    CampaignReport rep = runCampaign(targets, opts);
    EXPECT_EQ(rep.divergences, 0u) << rep.summary();
    EXPECT_GT(rep.schedules, 0u);
    // Every schedule ran the unhardened leg and its replica; every
    // hardened leg ran too, with a replica unless chaos was on.
    uint64_t hardened = 0, chaos = 0;
    for (const TargetReport &tr : rep.targets) {
        hardened += tr.hardenedSchedules;
        chaos += tr.chaosRuns;
    }
    EXPECT_GT(chaos, 0u);
    EXPECT_EQ(rep.vmRuns, 2 * rep.schedules + 2 * hardened - chaos);
}

TEST_F(CampaignFixture, StopAfterFailuresSkipsWork)
{
    auto prepared = prepare({"HTTrack"});
    auto targets = targetsFor(prepared);

    CampaignOptions opts = smallOptions();
    opts.workers = 1; // deterministic skip accounting
    opts.stopAfterFailures = 1;
    CampaignReport rep = runCampaign(targets, opts);
    const TargetReport &tr = rep.targets[0];
    if (tr.foundFailure)
        EXPECT_GT(tr.skipped, 0u);
    EXPECT_EQ(tr.schedules + tr.skipped,
              opts.policies.size() * opts.seedsPerPolicy);
}

TEST_F(CampaignFixture, ReproMatchesCampaignResult)
{
    // The --repro workflow: re-running a reported first-failure triple
    // must reproduce the same outcome the campaign recorded.  ZSNES
    // trips within the first couple of PCT seeds, so the small matrix
    // reliably has a triple to replay.
    auto prepared = prepare({"ZSNES"});
    auto targets = targetsFor(prepared);

    CampaignOptions opts = smallOptions();
    CampaignReport rep = runCampaign(targets, opts);
    const TargetReport &tr = rep.targets[0];
    if (!tr.foundFailure)
        GTEST_SKIP() << "no failing schedule in the small matrix";

    ScheduleSpec parsed;
    ASSERT_TRUE(parseScheduleToken(tr.firstFailure.token(), parsed));
    ScheduleOutcome o = runOneSchedule(targets[0], parsed, opts);
    EXPECT_FALSE(o.unhardenedCorrect);
    EXPECT_FALSE(o.unhardenedInconclusive);
    EXPECT_FALSE(o.diverged) << o.divergenceMsg;
}

TEST_F(CampaignFixture, CalibratedHorizonIsTickBased)
{
    auto prepared = prepare({"MySQL1"});
    Target t = apps::campaignTarget(prepared[0]);
    // The horizon counts scheduling ticks (shared stores + sync ops),
    // which is far below the raw instruction count of a clean run.
    vm::RunResult clean = apps::runClean(prepared[0].plain, 1);
    ASSERT_EQ(clean.outcome, vm::Outcome::Success);
    EXPECT_GE(t.horizon, 64u);
    EXPECT_LT(t.horizon, clean.stats.steps);
    EXPECT_GT(clean.stats.schedTicks, 0u);
}

//
// Chaos-injection determinism (VmConfig::chaosRollbackEveryN): the
// campaign explores hardened legs with chaos on, so the injection
// sites themselves must be a pure function of the seed.
//

TEST(ChaosDeterminism, SameSeedSameRollbackSites)
{
    const apps::AppSpec *spec = apps::findApp("MySQL1");
    ASSERT_NE(spec, nullptr);
    apps::PreparedApp p = apps::prepareApp(*spec, apps::HardenOptions{});

    vm::VmConfig cfg = spec->cleanConfig;
    cfg.seed = 11;
    cfg.chaosRollbackEveryN = 32;

    vm::RunResult a = vm::runProgram(*p.module, cfg);
    vm::RunResult b = vm::runProgram(*p.module, cfg);
    ASSERT_EQ(a.outcome, vm::Outcome::Success) << a.failureMsg;
    ASSERT_FALSE(a.stats.chaosSites.empty())
        << "chaos must actually inject for this test to mean anything";
    EXPECT_EQ(a.stats.chaosSites, b.stats.chaosSites);
    EXPECT_EQ(a.stats.chaosRollbacks, b.stats.chaosRollbacks);
    EXPECT_EQ(a.output, b.output);
}

TEST(ChaosDeterminism, DifferentSeedDifferentSites)
{
    const apps::AppSpec *spec = apps::findApp("MySQL1");
    apps::PreparedApp p = apps::prepareApp(*spec, apps::HardenOptions{});

    vm::VmConfig cfg = spec->cleanConfig;
    cfg.chaosRollbackEveryN = 32;
    cfg.seed = 11;
    vm::RunResult a = vm::runProgram(*p.module, cfg);
    cfg.seed = 12;
    vm::RunResult b = vm::runProgram(*p.module, cfg);
    ASSERT_FALSE(a.stats.chaosSites.empty());
    ASSERT_FALSE(b.stats.chaosSites.empty());
    EXPECT_NE(a.stats.chaosSites, b.stats.chaosSites);
    // Chaos may shuffle timing but never correctness.
    EXPECT_EQ(a.outcome, vm::Outcome::Success) << a.failureMsg;
    EXPECT_EQ(b.outcome, vm::Outcome::Success) << b.failureMsg;
}

TEST(ChaosDeterminism, EngineDifferentialHoldsUnderChaos)
{
    const apps::AppSpec *spec = apps::findApp("MySQL1");
    apps::PreparedApp p = apps::prepareApp(*spec, apps::HardenOptions{});

    vm::VmConfig cfg = spec->cleanConfig;
    cfg.seed = 4;
    cfg.chaosRollbackEveryN = 48;
    vm::RunResult a = vm::runProgram(*p.module, cfg);
    cfg.engine = vm::ExecEngine::Reference;
    vm::RunResult b = vm::runProgram(*p.module, cfg);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.clock, b.clock);
    EXPECT_EQ(a.stats.steps, b.stats.steps);
    EXPECT_EQ(a.stats.chaosSites, b.stats.chaosSites);
}

} // namespace
} // namespace conair::explore
