/**
 * @file
 * Replay-based ddmin minimisation: shrinking a recorded failing
 * schedule preserves the failure (and the postmortem diagnosis
 * verdict), and the minimised log still replays faithfully on every
 * engine — for all ten Table 2 kernels in the full sweep.
 */
#include <gtest/gtest.h>

#include "obs/replay/minimize.h"
#include "tests/replay/replay_test_util.h"

namespace conair::obs::replay {
namespace {

using testutil::RecordedFailure;

void
checkMinimized(const RecordedFailure &rf, const MinimizeResult &res)
{
    ASSERT_TRUE(res.ok) << rf.log.program << ": " << res.err;
    EXPECT_EQ(res.originalSwitches, rf.log.switches.size());
    EXPECT_LE(res.minimizedSwitches, res.originalSwitches)
        << rf.log.program;

    // Same failure, and the minimised log replays faithfully on every
    // engine (its fingerprint was re-recorded, then strictly verified
    // by minimizeReplayLog itself under Fused; re-verify both here).
    EXPECT_EQ(res.minimized.outcome, rf.log.outcome) << rf.log.program;
    EXPECT_EQ(res.minimized.failureTag, rf.log.failureTag)
        << rf.log.program;
    for (vm::ExecEngine e :
         {vm::ExecEngine::Fused, vm::ExecEngine::Reference}) {
        ReplayRun rr = replayLog(*rf.target.plain, res.minimized, e);
        EXPECT_TRUE(rr.faithful)
            << rf.log.program << " on " << engineName(e) << ": "
            << rr.mismatch;
    }
}

TEST(ReplayMinimize, ShrinksAndPreservesFailure)
{
    RecordedFailure rf;
    ASSERT_TRUE(testutil::recordFailure("ZSNES", rf));

    MinimizeOptions opts;
    MinimizeResult res =
        minimizeReplayLog(*rf.target.plain, rf.log, opts);
    checkMinimized(rf, res);
    EXPECT_GT(res.probes, 0u);
}

TEST(ReplayMinimize, ProbeBudgetIsHonoured)
{
    RecordedFailure rf;
    ASSERT_TRUE(testutil::recordFailure("ZSNES", rf));

    MinimizeOptions opts;
    opts.maxProbes = 3;
    MinimizeResult res =
        minimizeReplayLog(*rf.target.plain, rf.log, opts);
    // Budget exhaustion is not failure: we still get a verified
    // (possibly unshrunken) log from a bounded number of probes.
    ASSERT_TRUE(res.ok) << res.err;
    EXPECT_LE(res.probes, 4u); // baseline + <= maxProbes ddmin probes
    checkMinimized(rf, res);
}

// The full sweep: every Table 2 kernel's recorded failure minimises
// with the failure and the diagnosis verdict preserved.
TEST(ReplayMinimizeFull, AllTenKernelsPreserveOutcomeAndVerdict)
{
    for (const apps::AppSpec &app : apps::allApps()) {
        SCOPED_TRACE(app.name);
        RecordedFailure rf;
        ASSERT_TRUE(testutil::recordFailure(app.name.c_str(), rf,
                                            /*diagMode=*/true));

        MinimizeOptions opts;
        opts.preserveVerdict = true;
        MinimizeResult res =
            minimizeReplayLog(*rf.target.plain, rf.log, opts);
        checkMinimized(rf, res);
    }
}

} // namespace
} // namespace conair::obs::replay
