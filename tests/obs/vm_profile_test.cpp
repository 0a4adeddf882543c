/**
 * @file
 * VM <-> recovery-cost profiler integration tests.  The load-bearing
 * property is *passivity*: attaching a PhaseProfiler through
 * VmConfig::profiler is pure observation — the profiled run is tick-
 * and memDigest-identical to a bare one on all three engine variants
 * (Fused with and without the scheduler burst, Reference), with and
 * without chaos injection.  This is the contract that lets the
 * campaign profile every hardened leg while the bare Reference
 * replicas keep the tick-identity oracle meaningful.
 *
 * Non-vacuity is asserted throughout: the runs under test really roll
 * back and recover, so the profiler ends up with open-and-closed
 * episodes, re-execution ticks, and rollback steps — not zeros.
 */
#include <gtest/gtest.h>

#include "apps/harness.h"
#include "obs/metrics.h"
#include "obs/profile/profile.h"
#include "obs/profile/profile_export.h"
#include "obs/trace.h"
#include "tests/support/engine_variants.h"
#include "vm/interp.h"

namespace conair {
namespace {

using obs::prof::Phase;
using obs::prof::PhaseProfiler;
using obs::prof::ProfileAgg;
using testutil::EngineVariant;
using testutil::kEngineVariants;

const apps::AppSpec &
mysqlSpec()
{
    const apps::AppSpec *spec = apps::findApp("MySQL1");
    EXPECT_NE(spec, nullptr);
    return *spec;
}

/** Field-by-field fingerprint equality of a bare and an instrumented
 *  run — the same fields the replay referee checks. */
void
expectIdentical(const vm::RunResult &bare, const vm::RunResult &prof,
                const char *what)
{
    EXPECT_EQ(prof.outcome, bare.outcome) << what;
    EXPECT_EQ(prof.exitCode, bare.exitCode) << what;
    EXPECT_EQ(prof.clock, bare.clock) << what;
    EXPECT_EQ(prof.output, bare.output) << what;
    EXPECT_EQ(prof.stats.steps, bare.stats.steps) << what;
    EXPECT_EQ(prof.stats.schedTicks, bare.stats.schedTicks) << what;
    EXPECT_EQ(prof.stats.rollbacks, bare.stats.rollbacks) << what;
    EXPECT_EQ(prof.stats.checkpointsExecuted,
              bare.stats.checkpointsExecuted)
        << what;
    EXPECT_EQ(prof.stats.recoveries.size(), bare.stats.recoveries.size())
        << what;
    EXPECT_EQ(prof.memDigest, bare.memDigest) << what;
}

TEST(VmProfile, ProfiledRunIsTickIdenticalOnAllThreeEngines)
{
    apps::PreparedApp p =
        apps::prepareApp(mysqlSpec(), apps::HardenOptions{});

    for (const EngineVariant &v : kEngineVariants) {
        vm::VmConfig cfg = mysqlSpec().buggyConfig;
        cfg.seed = 1;
        v.applyTo(cfg);
        vm::RunResult bare = vm::runProgram(*p.module, cfg);

        PhaseProfiler prof;
        cfg.profiler = &prof;
        vm::RunResult instrumented = vm::runProgram(*p.module, cfg);
        expectIdentical(bare, instrumented, v.name);

        // Not vacuous: the run recovered and the profiler saw it.
        ASSERT_GT(instrumented.stats.rollbacks, 0u);
        EXPECT_FALSE(prof.empty());
        EXPECT_GT(prof.episodes().size(), 0u);
        EXPECT_GT(prof.phaseTicks(Phase::Rollback), 0u);
        EXPECT_GT(prof.phaseTicks(Phase::Reexec), 0u);
        EXPECT_GT(prof.phaseTicks(Phase::Dispatch), 0u);
    }
}

TEST(VmProfile, EnginesAgreeOnTheProfileItself)
{
    // Stronger than passivity: because all three engine variants retire
    // the same steps in the same order, the *profiler contents* must be
    // identical too — same phase ticks, same episodes, same tax.
    apps::PreparedApp p =
        apps::prepareApp(mysqlSpec(), apps::HardenOptions{});

    ProfileAgg agg[std::size(kEngineVariants)];
    size_t i = 0;
    for (const EngineVariant &v : kEngineVariants) {
        vm::VmConfig cfg = mysqlSpec().buggyConfig;
        cfg.seed = 1;
        v.applyTo(cfg);
        PhaseProfiler prof;
        cfg.profiler = &prof;
        vm::RunResult r = vm::runProgram(*p.module, cfg);
        ASSERT_EQ(r.outcome, vm::Outcome::Success) << r.failureMsg;
        agg[i++].add(prof);
    }
    EXPECT_EQ(agg[0], agg[1]);
    EXPECT_EQ(agg[1], agg[2]);
}

TEST(VmProfile, ProfiledChaosRunStaysPassive)
{
    // Chaos injection exercises the rollback machinery on otherwise
    // clean schedules; the profiler must stay passive there too, and
    // the injected sites must not move.
    apps::PreparedApp p =
        apps::prepareApp(mysqlSpec(), apps::HardenOptions{});

    for (const EngineVariant &v : kEngineVariants) {
        vm::VmConfig cfg = mysqlSpec().cleanConfig;
        cfg.seed = 11;
        v.applyTo(cfg);
        cfg.chaosRollbackEveryN = 32;
        vm::RunResult bare = vm::runProgram(*p.module, cfg);
        ASSERT_FALSE(bare.stats.chaosSites.empty());

        PhaseProfiler prof;
        cfg.profiler = &prof;
        vm::RunResult instrumented = vm::runProgram(*p.module, cfg);
        expectIdentical(bare, instrumented, v.name);
        EXPECT_EQ(instrumented.stats.chaosSites, bare.stats.chaosSites);
        EXPECT_EQ(instrumented.stats.chaosRollbacks,
                  bare.stats.chaosRollbacks);
        EXPECT_FALSE(prof.empty());
    }
}

TEST(VmProfile, HarnessOverloadAndRecorderComposePassively)
{
    // `conair run --app` attaches recorder + metrics + profiler at
    // once; the composition must still be pure observation.
    apps::PreparedApp p =
        apps::prepareApp(mysqlSpec(), apps::HardenOptions{});
    vm::RunResult bare = apps::runBuggy(p, 1);

    obs::FlightRecorder rec(4096);
    obs::MetricsRegistry met;
    PhaseProfiler prof;
    vm::VmConfig cfg = mysqlSpec().buggyConfig;
    cfg.seed = 1;
    cfg.recorder = &rec;
    cfg.metrics = &met;
    cfg.profiler = &prof;
    vm::RunResult all = vm::runProgram(*p.module, cfg);
    expectIdentical(bare, all, "recorder+metrics+profiler");

    // Each instrument saw the same recovery story.
    ASSERT_GT(all.stats.rollbacks, 0u);
    EXPECT_EQ(rec.totalOf(obs::EventKind::Rollback),
              all.stats.rollbacks);
    EXPECT_EQ(met.counter("rollbacks"), all.stats.rollbacks);
    uint64_t profRetries = 0;
    for (const obs::prof::EpisodeCost &ep : prof.episodes())
        profRetries += ep.retries;
    EXPECT_EQ(profRetries, all.stats.rollbacks);
    EXPECT_EQ(prof.episodes().size(), all.stats.recoveries.size());
}

TEST(VmProfile, ProfileIsDeterministicAcrossRuns)
{
    // Same (program, config, seed) => bit-identical profiler contents
    // and byte-identical exports.  This is what makes the goldens and
    // the worker-count-independence fold possible at all.
    apps::PreparedApp p =
        apps::prepareApp(mysqlSpec(), apps::HardenOptions{});

    std::string first, second;
    ProfileAgg firstAgg, secondAgg;
    for (auto [out, agg] : {std::pair{&first, &firstAgg},
                            std::pair{&second, &secondAgg}}) {
        PhaseProfiler prof;
        vm::VmConfig cfg = mysqlSpec().buggyConfig;
        cfg.seed = 1;
        cfg.profiler = &prof;
        vm::RunResult r = vm::runProgram(*p.module, cfg);
        ASSERT_EQ(r.outcome, vm::Outcome::Success);
        agg->add(prof);
        obs::prof::ProfileDoc doc;
        doc.phaseGroups.emplace_back("MySQL1", *agg);
        *out = obs::prof::speedscopeJson(doc, "determinism") + "\n---\n" +
               obs::prof::foldedStacks(doc) + "\n---\n" +
               obs::prof::hotPhaseTable(doc);
    }
    EXPECT_EQ(firstAgg, secondAgg);
    EXPECT_EQ(first, second);
}

TEST(VmProfile, RecoveryTaxIsNonzeroOnEveryKernel)
{
    // The paper's Table 2 registry: every kernel's failure-forcing run
    // under the hardened build must pay a measurable recovery tax —
    // episodes closed, steps re-executed.  (bench_explore enforces the
    // same bound over the full campaign matrix; this is the one-seed
    // tier-1 version.)
    for (const apps::AppSpec &spec : apps::allApps()) {
        apps::PreparedApp p =
            apps::prepareApp(spec, apps::HardenOptions{});
        PhaseProfiler prof;
        vm::VmConfig cfg = spec.buggyConfig;
        cfg.seed = 1;
        cfg.profiler = &prof;
        vm::runProgram(*p.module, cfg);
        ProfileAgg agg;
        agg.add(prof);
        EXPECT_GT(agg.episodes, 0u) << spec.name;
        EXPECT_GT(agg.reexecSteps, 0u) << spec.name;
        EXPECT_GT(agg.retries, 0u) << spec.name;
        EXPECT_FALSE(agg.episodesBySite.empty()) << spec.name;
    }
}

} // namespace
} // namespace conair
