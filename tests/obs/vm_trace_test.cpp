/**
 * @file
 * VM <-> flight-recorder integration tests.  Two properties are pinned:
 *
 *  1. *Passivity.*  Attaching a recorder and a metrics registry is pure
 *     observation — the instrumented run is tick-for-tick identical to
 *     the bare run (same outcome, clock, steps, output, and counters).
 *     This is the contract that lets the campaign engine keep its
 *     tick-identity differential oracle meaningful while tracing.
 *
 *  2. *Consistency.*  The recorder's per-kind totals and the metrics
 *     folded from RunStats agree with RunStats, even when the ring
 *     wrapped and dropped events (totals are maintained outside the
 *     ring).  A never-dropping trace also rebuilds RunStats' tally of
 *     checkpoint-to-failure distances exactly.
 */
#include <gtest/gtest.h>

#include "apps/harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "vm/interp.h"

namespace conair {
namespace {

/** MySQL1 under its failure-forcing schedule: rolls back and recovers,
 *  so every recovery-related event kind fires. */
const apps::AppSpec &
mysqlSpec()
{
    const apps::AppSpec *spec = apps::findApp("MySQL1");
    EXPECT_NE(spec, nullptr);
    return *spec;
}

/** @p p's failure-forcing run (seed 1) with @p rec and @p met attached;
 *  @p shared turns on diagnosis recording mode. */
vm::RunResult
observedBuggyRun(const apps::PreparedApp &p, obs::FlightRecorder *rec,
                 obs::MetricsRegistry *met, bool shared = false)
{
    vm::VmConfig cfg = p.spec->buggyConfig;
    cfg.seed = 1;
    cfg.recorder = rec;
    cfg.metrics = met;
    cfg.recordSharedAccesses = shared;
    return vm::runProgram(*p.module, cfg);
}

TEST(VmTrace, RecordingDoesNotPerturbExecution)
{
    apps::PreparedApp p =
        apps::prepareApp(mysqlSpec(), apps::HardenOptions{});
    vm::RunResult bare = apps::runBuggy(p, 1);

    obs::FlightRecorder rec(4096);
    obs::MetricsRegistry met;
    vm::RunResult traced = observedBuggyRun(p, &rec, &met);

    EXPECT_EQ(traced.outcome, bare.outcome);
    EXPECT_EQ(traced.exitCode, bare.exitCode);
    EXPECT_EQ(traced.clock, bare.clock);
    EXPECT_EQ(traced.output, bare.output);
    EXPECT_EQ(traced.stats.steps, bare.stats.steps);
    EXPECT_EQ(traced.stats.schedTicks, bare.stats.schedTicks);
    EXPECT_EQ(traced.stats.rollbacks, bare.stats.rollbacks);
    EXPECT_EQ(traced.stats.checkpointsExecuted,
              bare.stats.checkpointsExecuted);
    EXPECT_EQ(traced.stats.recoveries.size(),
              bare.stats.recoveries.size());
    // The run actually exercised recovery, so the test is not vacuous.
    EXPECT_GT(traced.stats.rollbacks, 0u);
}

TEST(VmTrace, DiagnosisModeDoesNotPerturbExecution)
{
    // recordSharedAccesses adds a SharedLoad/SharedStore event per
    // non-stack memory access — by far the chattiest recording mode —
    // and must still be pure observation: tick-for-tick identical to
    // the bare run.
    apps::PreparedApp p =
        apps::prepareApp(mysqlSpec(), apps::HardenOptions{});
    vm::RunResult bare = apps::runBuggy(p, 1);

    obs::FlightRecorder rec(65536);
    obs::MetricsRegistry met;
    vm::RunResult diag = observedBuggyRun(p, &rec, &met, true);

    EXPECT_EQ(diag.outcome, bare.outcome);
    EXPECT_EQ(diag.exitCode, bare.exitCode);
    EXPECT_EQ(diag.clock, bare.clock);
    EXPECT_EQ(diag.output, bare.output);
    EXPECT_EQ(diag.stats.steps, bare.stats.steps);
    EXPECT_EQ(diag.stats.schedTicks, bare.stats.schedTicks);
    EXPECT_EQ(diag.stats.rollbacks, bare.stats.rollbacks);
    EXPECT_EQ(diag.stats.checkpointsExecuted,
              bare.stats.checkpointsExecuted);
    EXPECT_EQ(diag.stats.recoveries.size(),
              bare.stats.recoveries.size());
    // Diagnosis mode actually recorded shared traffic (not vacuous).
    EXPECT_GT(rec.totalOf(obs::EventKind::SharedLoad), 0u);
    EXPECT_GT(rec.totalOf(obs::EventKind::SharedStore), 0u);
    EXPECT_GT(diag.stats.rollbacks, 0u);
}

TEST(VmTrace, SharedAccessesOffByDefault)
{
    // A recorder without recordSharedAccesses sees the recovery story
    // but zero SharedLoad/SharedStore events — diagnosis mode is
    // strictly opt-in.
    apps::PreparedApp p =
        apps::prepareApp(mysqlSpec(), apps::HardenOptions{});
    obs::FlightRecorder rec(4096);
    vm::RunResult r = observedBuggyRun(p, &rec, nullptr);
    ASSERT_EQ(r.outcome, vm::Outcome::Success);
    EXPECT_GT(rec.totalOf(obs::EventKind::Rollback), 0u);
    EXPECT_EQ(rec.totalOf(obs::EventKind::SharedLoad), 0u);
    EXPECT_EQ(rec.totalOf(obs::EventKind::SharedStore), 0u);
}

TEST(VmTrace, DisabledModeRecordsNothing)
{
    // recorder == nullptr is the production default; nothing observable
    // may leak.  (A freshly constructed recorder left unattached must
    // also stay empty.)
    apps::PreparedApp p =
        apps::prepareApp(mysqlSpec(), apps::HardenOptions{});
    obs::FlightRecorder rec(64);
    vm::RunResult r = observedBuggyRun(p, nullptr, nullptr);
    EXPECT_EQ(r.outcome, vm::Outcome::Success);
    EXPECT_EQ(rec.totalRecordedAll(), 0u);
    EXPECT_EQ(rec.threadCount(), 0u);
}

TEST(VmTrace, TotalsMatchRunStats)
{
    apps::PreparedApp p =
        apps::prepareApp(mysqlSpec(), apps::HardenOptions{});
    obs::FlightRecorder rec(4096);
    obs::MetricsRegistry met;
    vm::RunResult r = observedBuggyRun(p, &rec, &met);
    ASSERT_EQ(r.outcome, vm::Outcome::Success);

    using K = obs::EventKind;
    EXPECT_EQ(rec.totalOf(K::Rollback), r.stats.rollbacks);
    EXPECT_EQ(rec.totalOf(K::Checkpoint), r.stats.checkpointsExecuted);
    EXPECT_EQ(rec.totalOf(K::RecoveryDone), r.stats.recoveries.size());
    EXPECT_EQ(rec.totalOf(K::Backoff), r.stats.backoffs);
    EXPECT_EQ(rec.totalOf(K::CompensationFree),
              r.stats.compensationFrees);
    EXPECT_EQ(rec.totalOf(K::CompensationUnlock),
              r.stats.compensationUnlocks);
    // ThreadSpawn also fires for the initial main thread, which the
    // spawn() builtin counter does not include.
    EXPECT_EQ(rec.totalOf(K::ThreadSpawn), r.stats.threadsSpawned + 1);
    EXPECT_EQ(rec.totalOf(K::ChaosRollback), r.stats.chaosRollbacks);

    EXPECT_EQ(met.counter("rollbacks"), r.stats.rollbacks);
    EXPECT_EQ(met.counter("checkpoints"), r.stats.checkpointsExecuted);
    EXPECT_EQ(met.counter("recoveries"), r.stats.recoveries.size());
    EXPECT_EQ(met.counter("backoffs"), r.stats.backoffs);
    const obs::Histogram *lat = met.histogram("recovery_latency_us");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, r.stats.recoveries.size());
}

/** ckpt_to_failure_ticks rebuilt from @p rec's Rollback events, each
 *  of which carries its own checkpoint-to-failure distance (b). */
obs::Histogram
distancesFromTrace(const obs::FlightRecorder &rec)
{
    obs::Histogram h(obs::MetricsRegistry::tickDistanceBuckets());
    for (const obs::TraceEvent &e : rec.merged())
        if (e.kind == obs::EventKind::Rollback)
            h.observe(e.b);
    return h;
}

TEST(VmTrace, CkptToFailureTallyMatchesTrace)
{
    // RunStats keeps the distances as one tally; a trace that never
    // drops keeps them one event at a time.  Both, and the histogram
    // the registry folds from RunStats, must agree bucket for bucket.
    for (const char *name : {"MySQL1", "ZSNES"}) {
        const apps::AppSpec *spec = apps::findApp(name);
        ASSERT_NE(spec, nullptr) << name;
        apps::PreparedApp p =
            apps::prepareApp(*spec, apps::HardenOptions{});
        obs::FlightRecorder rec(4096, obs::RecorderMode::Grow);
        obs::MetricsRegistry met;
        vm::RunResult r = observedBuggyRun(p, &rec, &met);
        ASSERT_GT(r.stats.rollbacks, 0u) << name;
        ASSERT_EQ(rec.droppedAll(), 0u) << name;

        obs::Histogram traced = distancesFromTrace(rec);
        EXPECT_EQ(traced.count, r.stats.rollbacks) << name;
        EXPECT_EQ(traced, r.stats.ckptToFailureTicks) << name;
        const obs::Histogram *folded =
            met.histogram("ckpt_to_failure_ticks");
        ASSERT_NE(folded, nullptr) << name;
        EXPECT_EQ(*folded, traced) << name;
    }
}

TEST(VmTrace, TotalsSurviveRingWraparound)
{
    apps::PreparedApp p =
        apps::prepareApp(mysqlSpec(), apps::HardenOptions{});
    // A tiny ring guarantees drops; totals must still match RunStats.
    obs::FlightRecorder rec(8);
    vm::RunResult r = observedBuggyRun(p, &rec, nullptr);
    ASSERT_EQ(r.outcome, vm::Outcome::Success);
    EXPECT_GT(rec.droppedAll(), 0u);
    EXPECT_EQ(rec.totalOf(obs::EventKind::Checkpoint),
              r.stats.checkpointsExecuted);
    EXPECT_EQ(rec.totalOf(obs::EventKind::Rollback), r.stats.rollbacks);
}

TEST(VmTrace, TraceIsDeterministicAcrossRuns)
{
    apps::PreparedApp p =
        apps::prepareApp(mysqlSpec(), apps::HardenOptions{});
    std::string first, second;
    for (std::string *out : {&first, &second}) {
        obs::FlightRecorder rec(4096);
        obs::MetricsRegistry met;
        vm::RunResult r = observedBuggyRun(p, &rec, &met);
        ASSERT_EQ(r.outcome, vm::Outcome::Success);
        *out = obs::chromeTraceJson(rec, "MySQL1") + "\n---\n" +
               met.toJson() + "\n---\n" + obs::recoveryTimeline(rec);
    }
    EXPECT_EQ(first, second);
}

TEST(VmTrace, RecorderSeesLockTraffic)
{
    apps::PreparedApp p =
        apps::prepareApp(mysqlSpec(), apps::HardenOptions{});
    obs::FlightRecorder rec(4096);
    vm::RunResult r = observedBuggyRun(p, &rec, nullptr);
    ASSERT_EQ(r.outcome, vm::Outcome::Success);
    EXPECT_GT(rec.totalOf(obs::EventKind::LockAcquire), 0u);
}

TEST(VmTrace, FailureSiteFiresOnUnhardenedFailure)
{
    // A *recovered* hardened run never reaches the terminal failure
    // path, so FailureSite belongs to the unhardened leg of the story.
    apps::HardenOptions plain;
    plain.applyConAir = false;
    apps::PreparedApp p = apps::prepareApp(mysqlSpec(), plain);
    obs::FlightRecorder rec(4096);
    vm::RunResult r = observedBuggyRun(p, &rec, nullptr);
    ASSERT_NE(r.outcome, vm::Outcome::Success);
    EXPECT_EQ(rec.totalOf(obs::EventKind::FailureSite), 1u);
}

} // namespace
} // namespace conair
