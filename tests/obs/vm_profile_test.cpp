/**
 * @file
 * How the VM fills a run's recovery-cost profile: the phase tally in
 * RunStats::phaseTicks and each episode's cost in its RecoveryEvent,
 * which ProfileAgg::add folds after the run.
 *
 *  - The tally agrees with the run's own trace on all three engine
 *    variants (Fused with and without the scheduler burst,
 *    Reference): the phases sum to the steps plus the waited ticks,
 *    and every episode's retries, checkpoint distance and back-off
 *    ticks equal its Rollback and Backoff events.
 *  - Small IR programs pin the bookkeeping exactly: wasted steps are
 *    the steps since the checkpoint summed over retries, lock waits
 *    never count as wasted steps, and two threads' episodes stay
 *    separate.
 *  - VmConfig::profiler is a sink run() folds into as it returns, so
 *    setting it changes nothing about the run.
 *
 * Non-vacuity is asserted throughout: the runs under test really roll
 * back and recover, so the profile holds closed episodes, re-execution
 * ticks, and rollback steps — not zeros.
 */
#include <map>
#include <numeric>

#include <gtest/gtest.h>

#include "apps/harness.h"
#include "ir/parser.h"
#include "obs/metrics.h"
#include "obs/profile/profile.h"
#include "obs/profile/profile_export.h"
#include "obs/trace.h"
#include "support/diag.h"
#include "tests/support/engine_variants.h"
#include "vm/interp.h"

namespace conair {
namespace {

using obs::prof::Phase;
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

uint64_t
ticksOf(const vm::RunStats &s, Phase p)
{
    return s.phaseTicks[size_t(p)];
}

uint64_t
totalTicks(const vm::RunStats &s)
{
    return std::accumulate(s.phaseTicks.begin(), s.phaseTicks.end(),
                           uint64_t(0));
}

/** Field-by-field fingerprint equality of a bare and an instrumented
 *  run — the replay referee's fields plus the profile itself. */
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
    EXPECT_EQ(prof.stats.phaseTicks, bare.stats.phaseTicks) << what;
    EXPECT_EQ(prof.stats.recoveries, bare.stats.recoveries) << what;
    EXPECT_EQ(prof.memDigest, bare.memDigest) << what;
}

/** The recovery story a never-dropping trace tells on its own.  Per
 *  thread, a Rollback whose retry count (payload a) is 1 opens an
 *  episode, carrying its checkpoint distance (payload b); later
 *  Rollbacks count retries; Backoff events add their ticks (payload
 *  a) to the open episode; RecoveryDone closes it.  @p backoffTicks
 *  sums every Backoff event, in or out of an episode. */
std::vector<vm::RecoveryEvent>
episodesFromTrace(const obs::FlightRecorder &rec, uint64_t &backoffTicks)
{
    std::vector<vm::RecoveryEvent> done;
    std::map<uint32_t, vm::RecoveryEvent> open;
    backoffTicks = 0;
    for (const obs::TraceEvent &e : rec.merged()) {
        switch (e.kind) {
          case obs::EventKind::Rollback:
            if (e.a == 1) {
                vm::RecoveryEvent ep{e.tag, 0, e.clock, 0};
                ep.tid = e.tid;
                ep.ckptDistanceTicks = e.b;
                open[e.tid] = ep;
            }
            ++open[e.tid].retries;
            break;
          case obs::EventKind::Backoff:
            backoffTicks += e.a;
            if (open.count(e.tid))
                open[e.tid].backoffTicks += e.a;
            break;
          case obs::EventKind::RecoveryDone:
            if (open.count(e.tid)) {
                done.push_back(open[e.tid]);
                done.back().endClock = e.clock;
                open.erase(e.tid);
            }
            break;
          default:
            break;
        }
    }
    return done;
}

TEST(VmProfile, TallyMatchesTheTrace)
{
    // MySQL1's and ZSNES's failure-forcing runs plus one chaos run,
    // each with a Grow recorder, on every engine variant.
    struct Case
    {
        const char *app;
        bool chaos;
    };
    for (const Case &c : {Case{"MySQL1", false}, Case{"ZSNES", false},
                          Case{"MySQL1", true}}) {
        const apps::AppSpec *spec = apps::findApp(c.app);
        ASSERT_NE(spec, nullptr) << c.app;
        apps::PreparedApp p =
            apps::prepareApp(*spec, apps::HardenOptions{});
        for (const EngineVariant &v : kEngineVariants) {
            const std::string ctx = std::string(c.app) +
                                    (c.chaos ? " chaos " : " buggy ") +
                                    v.name;
            vm::VmConfig cfg = c.chaos ? spec->cleanConfig
                                       : spec->buggyConfig;
            cfg.seed = c.chaos ? 11 : 1;
            if (c.chaos)
                cfg.chaosRollbackEveryN = 32;
            v.applyTo(cfg);
            obs::FlightRecorder rec(4096, obs::RecorderMode::Grow);
            cfg.recorder = &rec;
            vm::RunResult r = vm::runProgram(*p.module, cfg);
            ASSERT_EQ(rec.droppedAll(), 0u) << ctx;
            ASSERT_GT(c.chaos ? r.stats.chaosRollbacks : r.stats.rollbacks,
                      0u)
                << ctx;

            uint64_t backoff = 0;
            std::vector<vm::RecoveryEvent> traced =
                episodesFromTrace(rec, backoff);
            EXPECT_EQ(totalTicks(r.stats),
                      r.stats.steps + ticksOf(r.stats, Phase::LockWait) +
                          backoff)
                << ctx;

            ASSERT_EQ(traced.size(), r.stats.recoveries.size()) << ctx;
            for (size_t i = 0; i < traced.size(); ++i) {
                const vm::RecoveryEvent &t = traced[i];
                const vm::RecoveryEvent &ev = r.stats.recoveries[i];
                EXPECT_EQ(ev.siteTag, t.siteTag) << ctx << " episode " << i;
                EXPECT_EQ(ev.tid, t.tid) << ctx << " episode " << i;
                EXPECT_EQ(ev.retries, t.retries) << ctx << " episode " << i;
                EXPECT_EQ(ev.ckptDistanceTicks, t.ckptDistanceTicks)
                    << ctx << " episode " << i;
                EXPECT_EQ(ev.backoffTicks, t.backoffTicks)
                    << ctx << " episode " << i;
                EXPECT_EQ(ev.startClock, t.startClock)
                    << ctx << " episode " << i;
                EXPECT_EQ(ev.endClock, t.endClock)
                    << ctx << " episode " << i;
            }
        }
    }
}

/** Runs MiniIR @p text on every engine variant; all must agree, and
 *  the fused run is returned. */
vm::RunResult
runIR(const std::string &text)
{
    DiagEngine d;
    auto m = ir::parseModule(text, d);
    EXPECT_TRUE(m) << d.str();
    if (!m)
        return {};
    vm::RunResult first;
    for (const EngineVariant &v : kEngineVariants) {
        vm::VmConfig cfg;
        v.applyTo(cfg);
        vm::RunResult r = vm::runProgram(*m, cfg);
        if (&v == &kEngineVariants[0])
            first = r;
        else
            testutil::expectSameRun(first, r, v.name);
    }
    return first;
}

TEST(VmProfile, WastedStepsAreTheStepsSinceTheCheckpoint)
{
    // The site fails twice before the counter reaches 3.  Each failed
    // attempt retires 7 steps after the checkpoint (br, load, add,
    // store, icmp, condbr, try_rollback), all discarded by its
    // rollback; the two re-executions retire 6 plain steps each before
    // the site passes.
    vm::RunResult r = runIR(R"(
global @n : i64[1]

func @main() -> i64 {
entry:
    call $conair.checkpoint(0)
    br region
region:
    %v = load i64, @n
    %w = add %v, 1
    store %w, @n
    %ok = icmp.sge %w, 3
    condbr %ok, good, fail
fail:
    call $conair.try_rollback(7) #"site7"
    call $assert_fail("n below 3")
    unreachable
good:
    call $conair.recovered(7)
    ret %w
}
)");
    ASSERT_EQ(r.outcome, vm::Outcome::Success) << r.failureMsg;
    ASSERT_EQ(r.stats.recoveries.size(), 1u);
    const vm::RecoveryEvent &ep = r.stats.recoveries[0];
    EXPECT_EQ(ep.siteTag, "site7");
    EXPECT_EQ(ep.retries, 2u);
    EXPECT_EQ(ep.wastedSteps, 14u);
    EXPECT_EQ(ep.reexecSteps, 12u);
    EXPECT_EQ(ticksOf(r.stats, Phase::Reexec), 12u);
    EXPECT_EQ(ticksOf(r.stats, Phase::Rollback), 2u);
    EXPECT_EQ(ticksOf(r.stats, Phase::CheckpointSave), 1u);
    // The second retry backs off; those ticks are the episode's.
    EXPECT_GT(ep.backoffTicks, 0u);
    EXPECT_EQ(ep.backoffTicks, ticksOf(r.stats, Phase::Backoff));
    EXPECT_EQ(totalTicks(r.stats), r.stats.steps + ep.backoffTicks);
}

TEST(VmProfile, LockWaitsAreNotWastedSteps)
{
    // The first attempt blocks on @m until the holder wakes, then
    // fails once.  Its rollback discards the 9 steps main retired after
    // the checkpoint (br, lock, unlock, load, add, store, icmp, condbr,
    // try_rollback), however long it waited for the lock.
    vm::RunResult r = runIR(R"(
global @n : i64[1]
mutex @m

func @holder(i64 %arg) -> i64 {
entry:
    call $mutex_lock(@m)
    call $sleep(50)
    call $mutex_unlock(@m)
    ret 0
}

func @main() -> i64 {
entry:
    %t = call $thread_create(@holder, 0)
    call $sleep(10)
    call $conair.checkpoint(0)
    br region
region:
    call $mutex_lock(@m)
    call $mutex_unlock(@m)
    %v = load i64, @n
    %w = add %v, 1
    store %w, @n
    %ok = icmp.sge %w, 2
    condbr %ok, good, fail
fail:
    call $conair.try_rollback(9) #"site9"
    call $assert_fail("n below 2")
    unreachable
good:
    call $conair.recovered(9)
    call $thread_join(%t)
    ret 0
}
)");
    ASSERT_EQ(r.outcome, vm::Outcome::Success) << r.failureMsg;
    EXPECT_GT(ticksOf(r.stats, Phase::LockWait), 0u);
    ASSERT_EQ(r.stats.recoveries.size(), 1u);
    const vm::RecoveryEvent &ep = r.stats.recoveries[0];
    EXPECT_EQ(ep.retries, 1u);
    EXPECT_EQ(ep.wastedSteps, 9u);
    EXPECT_EQ(ep.reexecSteps, 8u);
    EXPECT_EQ(ep.backoffTicks, 0u);
    EXPECT_EQ(totalTicks(r.stats),
              r.stats.steps + ticksOf(r.stats, Phase::LockWait));
}

TEST(VmProfile, ThreadsKeepSeparateEpisodes)
{
    // Two workers each fail once at their own site; the sleeps keep
    // both episodes open at the same time.  @wb's region is one step
    // longer, so the two cost breakdowns differ.
    vm::RunResult r = runIR(R"(
global @a : i64[1]
global @b : i64[1]

func @wa(i64 %arg) -> i64 {
entry:
    call $conair.checkpoint(0)
    br region
region:
    call $sleep(20)
    %v = load i64, @a
    %w = add %v, 1
    store %w, @a
    %ok = icmp.sge %w, 2
    condbr %ok, good, fail
fail:
    call $conair.try_rollback(1) #"site.a"
    call $assert_fail("a")
    unreachable
good:
    call $conair.recovered(1)
    ret 0
}

func @wb(i64 %arg) -> i64 {
entry:
    call $conair.checkpoint(0)
    br region
region:
    call $sleep(20)
    %v = load i64, @b
    %w = add %v, 1
    %x = add %w, 0
    store %x, @b
    %ok = icmp.sge %x, 2
    condbr %ok, good, fail
fail:
    call $conair.try_rollback(2) #"site.b"
    call $assert_fail("b")
    unreachable
good:
    call $conair.recovered(2)
    ret 0
}

func @main() -> i64 {
entry:
    %ta = call $thread_create(@wa, 0)
    %tb = call $thread_create(@wb, 0)
    call $thread_join(%ta)
    call $thread_join(%tb)
    ret 0
}
)");
    ASSERT_EQ(r.outcome, vm::Outcome::Success) << r.failureMsg;
    ASSERT_EQ(r.stats.recoveries.size(), 2u);
    std::map<std::string, vm::RecoveryEvent> bySite;
    for (const vm::RecoveryEvent &ep : r.stats.recoveries)
        bySite[ep.siteTag] = ep;
    ASSERT_EQ(bySite.size(), 2u);
    const vm::RecoveryEvent &a = bySite["site.a"];
    const vm::RecoveryEvent &b = bySite["site.b"];
    EXPECT_EQ(a.tid, 1u);
    EXPECT_EQ(b.tid, 2u);
    EXPECT_LT(b.startClock, a.endClock); // both open at once
    EXPECT_LT(a.startClock, b.endClock);
    EXPECT_EQ(a.retries, 1u);
    EXPECT_EQ(b.retries, 1u);
    EXPECT_EQ(a.wastedSteps, 8u);
    EXPECT_EQ(b.wastedSteps, 9u);
    EXPECT_EQ(a.reexecSteps, 7u);
    EXPECT_EQ(b.reexecSteps, 8u);
    EXPECT_EQ(ticksOf(r.stats, Phase::Reexec), 15u);
}

TEST(VmProfile, ProfiledRunIsTickIdenticalOnAllThreeEngines)
{
    // VmConfig::profiler is a sink run() folds into as it returns:
    // setting it changes nothing about the run, the tally included,
    // and the sink ends up equal to a fold of the run's RunStats.
    apps::PreparedApp p =
        apps::prepareApp(mysqlSpec(), apps::HardenOptions{});

    for (const EngineVariant &v : kEngineVariants) {
        vm::VmConfig cfg = mysqlSpec().buggyConfig;
        cfg.seed = 1;
        v.applyTo(cfg);
        vm::RunResult bare = vm::runProgram(*p.module, cfg);

        ProfileAgg sink;
        cfg.profiler = &sink;
        vm::RunResult instrumented = vm::runProgram(*p.module, cfg);
        expectIdentical(bare, instrumented, v.name);
        ProfileAgg folded;
        folded.add(instrumented.stats);
        EXPECT_EQ(sink, folded) << v.name;

        // Not vacuous: the run recovered and the tally saw it.
        ASSERT_GT(instrumented.stats.rollbacks, 0u);
        EXPECT_GT(sink.episodes, 0u);
        EXPECT_GT(ticksOf(bare.stats, Phase::Rollback), 0u);
        EXPECT_GT(ticksOf(bare.stats, Phase::Reexec), 0u);
        EXPECT_GT(ticksOf(bare.stats, Phase::Dispatch), 0u);
    }
}

TEST(VmProfile, EnginesAgreeOnTheProfileItself)
{
    // All three engine variants retire the same steps in the same
    // order, so the folded profiles must be identical too — same phase
    // ticks, same episodes, same tax.
    apps::PreparedApp p =
        apps::prepareApp(mysqlSpec(), apps::HardenOptions{});

    ProfileAgg agg[std::size(kEngineVariants)];
    size_t i = 0;
    for (const EngineVariant &v : kEngineVariants) {
        vm::VmConfig cfg = mysqlSpec().buggyConfig;
        cfg.seed = 1;
        v.applyTo(cfg);
        vm::RunResult r = vm::runProgram(*p.module, cfg);
        ASSERT_EQ(r.outcome, vm::Outcome::Success) << r.failureMsg;
        agg[i++].add(r.stats);
    }
    EXPECT_EQ(agg[0], agg[1]);
    EXPECT_EQ(agg[1], agg[2]);
}

TEST(VmProfile, ProfiledChaosRunStaysPassive)
{
    // Chaos injection exercises the rollback machinery on otherwise
    // clean schedules; the sink must change nothing there either, and
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

        ProfileAgg sink;
        cfg.profiler = &sink;
        vm::RunResult instrumented = vm::runProgram(*p.module, cfg);
        expectIdentical(bare, instrumented, v.name);
        EXPECT_EQ(instrumented.stats.chaosSites, bare.stats.chaosSites);
        EXPECT_EQ(instrumented.stats.chaosRollbacks,
                  bare.stats.chaosRollbacks);
        EXPECT_GT(sink.totalTicks(), 0u);
    }
}

TEST(VmProfile, HarnessOverloadAndRecorderComposePassively)
{
    // `conair run --app` attaches recorder + metrics + profile at
    // once; the composition must still be pure observation.
    apps::PreparedApp p =
        apps::prepareApp(mysqlSpec(), apps::HardenOptions{});
    vm::RunResult bare = apps::runBuggy(p, 1);

    obs::FlightRecorder rec(4096);
    obs::MetricsRegistry met;
    ProfileAgg prof;
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
    EXPECT_EQ(prof.retries, all.stats.rollbacks);
    EXPECT_EQ(prof.episodes, all.stats.recoveries.size());
}

TEST(VmProfile, ProfileIsDeterministicAcrossRuns)
{
    // Same (program, config, seed) => bit-identical profile and
    // byte-identical exports.  This is what makes the goldens and the
    // worker-count-independence fold possible at all.
    apps::PreparedApp p =
        apps::prepareApp(mysqlSpec(), apps::HardenOptions{});

    std::string first, second;
    ProfileAgg firstAgg, secondAgg;
    for (auto [out, agg] : {std::pair{&first, &firstAgg},
                            std::pair{&second, &secondAgg}}) {
        vm::VmConfig cfg = mysqlSpec().buggyConfig;
        cfg.seed = 1;
        vm::RunResult r = vm::runProgram(*p.module, cfg);
        ASSERT_EQ(r.outcome, vm::Outcome::Success);
        agg->add(r.stats);
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
        vm::VmConfig cfg = spec.buggyConfig;
        cfg.seed = 1;
        ProfileAgg agg;
        agg.add(vm::runProgram(*p.module, cfg).stats);
        EXPECT_GT(agg.episodes, 0u) << spec.name;
        EXPECT_GT(agg.reexecSteps, 0u) << spec.name;
        EXPECT_GT(agg.retries, 0u) << spec.name;
        EXPECT_FALSE(agg.episodesBySite.empty()) << spec.name;
    }
}

} // namespace
} // namespace conair
