/**
 * @file
 * Replay mode of the scheduler (VmConfig::replay) on every engine
 * variant: a strict replay names its divergence exactly, a tolerant one
 * skips what cannot apply and falls back to the lowest runnable id, and
 * a due switch whose thread is asleep waits for it to wake.
 */
#include "obs/trace.h"
#include "tests/support/engine_variants.h"
#include "tests/vm/vm_test_util.h"

namespace conair::vm {
namespace {

using conair::testutil::kEngineVariants;
using conair::testutil::runEveryVariant;
using testutil::compileC;
using Switches = std::vector<ReplaySchedule::Switch>;

/** main spawns one worker (step 1) and joins it (step 2). */
const char *kJoin = R"(
int g;
int worker(int x) { g = g + x; return 0; }
int main() {
    int t = spawn(worker, 5);
    join(t);
    print(g);
    return 0;
}
)";

/** Replays @p switches over @p src on every engine variant; returns
 *  the production engine's run. */
RunResult
replay(const char *src, const Switches &switches, bool tolerant)
{
    auto m = compileC(src);
    if (!m)
        return {};
    ReplaySchedule sched{switches, tolerant};
    VmConfig cfg;
    cfg.replay = &sched;
    return runEveryVariant(*m, cfg);
}

/** A strict replay of @p switches over @p src diverges with @p msg on
 *  every engine variant. */
void
expectDivergence(const char *src, const Switches &switches,
                 const std::string &msg)
{
    auto m = compileC(src);
    ASSERT_TRUE(m);
    ReplaySchedule sched{switches, false};
    for (const auto &v : kEngineVariants) {
        VmConfig cfg;
        cfg.replay = &sched;
        v.applyTo(cfg);
        RunResult r = runProgram(*m, cfg);
        EXPECT_EQ(r.outcome, Outcome::Trap) << v.name;
        EXPECT_EQ(r.replayDivergence, msg) << v.name;
        EXPECT_EQ(r.failureMsg, "replay divergence: " + msg) << v.name;
    }
}

/** The switches a RoundRobin run of @p src makes, read back from its
 *  trace, and that run's result in @p out. */
Switches
recordSwitches(const char *src, RunResult &out)
{
    auto m = compileC(src);
    if (!m)
        return {};
    obs::FlightRecorder rec(256, obs::RecorderMode::Grow);
    VmConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    cfg.recorder = &rec;
    out = runProgram(*m, cfg);
    Switches sw;
    rec.visitMerged([&](const obs::TraceEvent &ev) {
        if (ev.kind == obs::EventKind::SchedSwitch)
            sw.push_back({ev.step, ev.tid});
    });
    return sw;
}

TEST(InterpReplay, StrictOverrunInsidePhiTicks)
{
    // The loop's back edge charges its header phis after the branch, so
    // steps 9 and 10 are never a decision point: the first pick after
    // the jump sees step 11.  The overrun is reported even though the
    // switch's thread is runnable.
    expectDivergence(R"(
int g;
int worker(int x) { g = x; return 0; }
int main() {
    int t = spawn(worker, 5);
    int i = 0;
    int s = 0;
    while (i < 4) { s = s + i; i = i + 1; }
    join(t);
    print(s);
    return 0;
}
)",
                     {{9, 1}},
                     "switch #0 (thread 1 at step 9) was overrun (now at "
                     "step 11)");
}

TEST(InterpReplay, StrictSwitchToABlockedThread)
{
    // At step 2 main has just joined; the worker is the runnable one.
    expectDivergence(kJoin, {{2, 0}},
                     "switch #0: thread 0 is not runnable at step 2");
}

TEST(InterpReplay, StrictSwitchToAThreadNotYetSpawned)
{
    expectDivergence(kJoin, {{0, 1}},
                     "switch #0: thread 1 is not runnable at step 0");
}

TEST(InterpReplay, StrictCurrentThreadBlocksWithNoSwitch)
{
    expectDivergence(kJoin, {},
                     "thread 0 cannot continue at step 2 and no switch is "
                     "recorded (thread 1 is runnable)");
}

TEST(InterpReplay, FaithfulReplayReproducesTheRecordedRun)
{
    RunResult recorded;
    Switches sw = recordSwitches(kJoin, recorded);
    ASSERT_EQ(sw, (Switches{{2, 1}, {6, 0}}));
    RunResult r = replay(kJoin, sw, /*tolerant=*/false);
    EXPECT_EQ(r.outcome, Outcome::Success) << r.failureMsg;
    EXPECT_EQ(r.replayDivergence, "");
    EXPECT_EQ(r.output, "5");
    EXPECT_EQ(r.clock, recorded.clock);
    EXPECT_EQ(r.stats.steps, recorded.stats.steps);
}

TEST(InterpReplay, TolerantSkipsANonRunnableSwitch)
{
    // Thread 2 never exists: strict replay stops at the first switch,
    // tolerant replay skips it and the rest replays faithfully.
    const Switches sw = {{1, 2}, {2, 1}, {6, 0}};
    expectDivergence(kJoin, sw,
                     "switch #0: thread 2 is not runnable at step 1");
    RunResult recorded;
    recordSwitches(kJoin, recorded);
    RunResult r = replay(kJoin, sw, /*tolerant=*/true);
    EXPECT_EQ(r.outcome, Outcome::Success) << r.failureMsg;
    EXPECT_EQ(r.replayDivergence, "");
    EXPECT_EQ(r.output, "5");
    EXPECT_EQ(r.clock, recorded.clock);
    EXPECT_EQ(r.stats.steps, recorded.stats.steps);
}

TEST(InterpReplay, TolerantFallsBackToTheLowestRunnableId)
{
    // No switch at all: when main joins the second worker, the lowest
    // runnable id (the first worker) runs, then the second, then main.
    RunResult r = replay(R"(
int worker(int x) { print(x); return 0; }
int main() {
    int a = spawn(worker, 7);
    int b = spawn(worker, 8);
    join(b);
    join(a);
    print(0);
    return 0;
}
)",
                         {}, /*tolerant=*/true);
    EXPECT_EQ(r.outcome, Outcome::Success) << r.failureMsg;
    EXPECT_EQ(r.replayDivergence, "");
    EXPECT_EQ(r.output, "780");
}

TEST(InterpReplay, DueSwitchWaitsForASleeperToWake)
{
    // Switches #1 and #2 fall due while every thread sleeps: each stays
    // pending while the clock jumps to the next wake-up, then applies.
    const char *src = R"(
int worker(int x) { sleep(50); print(1); return 0; }
int main() {
    int t = spawn(worker, 0);
    sleep(10);
    print(0);
    join(t);
    return 0;
}
)";
    RunResult recorded;
    Switches sw = recordSwitches(src, recorded);
    ASSERT_EQ(sw, (Switches{{2, 1}, {3, 0}, {5, 1}, {7, 0}}));
    for (bool tolerant : {false, true}) {
        RunResult r = replay(src, sw, tolerant);
        EXPECT_EQ(r.outcome, Outcome::Success) << r.failureMsg;
        EXPECT_EQ(r.replayDivergence, "");
        EXPECT_EQ(r.output, "01");
        EXPECT_EQ(r.clock, 56u);
        EXPECT_EQ(r.clock, recorded.clock);
        EXPECT_EQ(r.stats.steps, recorded.stats.steps);
    }
}

} // namespace
} // namespace conair::vm
