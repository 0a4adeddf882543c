/**
 * @file
 * Record-and-replay against the real VM: a recorded kernel failure
 * replays tick- and memDigest-identically on every engine, re-records
 * byte-identically, replays cross-engine (record under Reference,
 * replay under Fused), and refuses to replay from a wrapped ring.
 */
#include <gtest/gtest.h>

#include "obs/replay/replay_export.h"
#include "obs/replay/replay_run.h"
#include "tests/replay/replay_test_util.h"
#include "tests/support/temp_path.h"

namespace conair::obs::replay {
namespace {

using testutil::RecordedFailure;

TEST(ReplayVm, ReplayIsFaithfulOnAllEngines)
{
    RecordedFailure rf;
    ASSERT_TRUE(testutil::recordFailure("ZSNES", rf));
    ASSERT_FALSE(rf.log.switches.empty());

    for (vm::ExecEngine e :
         {vm::ExecEngine::Fused, vm::ExecEngine::Reference}) {
        ReplayRun rr = replayLog(*rf.target.plain, rf.log, e);
        EXPECT_TRUE(rr.faithful)
            << engineName(e) << ": " << rr.mismatch;
        EXPECT_EQ(vm::outcomeName(rr.result.outcome), rf.log.outcome)
            << engineName(e);
        EXPECT_EQ(rr.result.memDigest, rf.log.memDigest)
            << engineName(e);
        EXPECT_EQ(rr.result.stats.steps, rf.log.finalSteps)
            << engineName(e);
    }

    // Recording without the scheduler burst (every instruction through
    // the per-instruction handlers) yields the very same log.
    RecordedFailure stepwise;
    ASSERT_TRUE(testutil::recordFailure("ZSNES", stepwise,
                                        /*diagMode=*/false,
                                        vm::ExecEngine::Fused,
                                        /*burst=*/false));
    EXPECT_EQ(stepwise.log.serialize(), rf.log.serialize());
}

TEST(ReplayVm, ReplayedRunReRecordsByteIdentically)
{
    RecordedFailure rf;
    ASSERT_TRUE(testutil::recordFailure("ZSNES", rf,
                                        /*diagMode=*/true));
    ASSERT_GT(rf.log.accessCount, 0u);

    // Observe the replay with its own replay-grade recorder; all three
    // referees (fingerprint, lock order, access digest) stay on.
    FlightRecorder rec(4096, RecorderMode::Grow);
    ReplayInstruments ins;
    ins.recorder = &rec;
    ins.recordSharedAccesses = true;
    ins.checkLockOrder = true;
    ReplayRun rr = replayLog(*rf.target.plain, rf.log,
                             rf.log.engine, &ins);
    ASSERT_TRUE(rr.faithful) << rr.mismatch;

    // Rebuilding a log from the replayed run reproduces the original
    // recording byte for byte.
    ReplayLog relog;
    std::string err;
    ASSERT_TRUE(buildReplayLog(rf.log.program, rf.log.scheduleToken,
                               rf.cfg, rec, rr.result, relog, err))
        << err;
    EXPECT_EQ(relog.serialize(), rf.log.serialize());
}

TEST(ReplayVm, CrossEngineRecordReferenceReplayFused)
{
    RecordedFailure rf;
    ASSERT_TRUE(testutil::recordFailure("ZSNES", rf,
                                        /*diagMode=*/false,
                                        vm::ExecEngine::Reference));
    EXPECT_EQ(rf.log.engine, vm::ExecEngine::Reference);

    ReplayRun rr =
        replayLog(*rf.target.plain, rf.log, vm::ExecEngine::Fused);
    EXPECT_TRUE(rr.faithful) << rr.mismatch;
}

TEST(ReplayVm, TolerantReplayOfFullListReproduces)
{
    RecordedFailure rf;
    ASSERT_TRUE(testutil::recordFailure("ZSNES", rf));
    vm::RunResult r = replayTolerant(*rf.target.plain, rf.log,
                                     rf.log.switches,
                                     vm::ExecEngine::Fused);
    EXPECT_EQ(vm::outcomeName(r.outcome), rf.log.outcome);
    EXPECT_EQ(r.failureTag, rf.log.failureTag);
}

TEST(ReplayVm, StrictReplayFlagsPerturbedLog)
{
    RecordedFailure rf;
    ASSERT_TRUE(testutil::recordFailure("ZSNES", rf));

    // A tampered fingerprint must be reported, not shrugged off.
    ReplayLog tampered = rf.log;
    tampered.finalSteps += 1;
    ReplayRun rr = replayLog(*rf.target.plain, tampered,
                             vm::ExecEngine::Fused);
    EXPECT_FALSE(rr.faithful);
    EXPECT_NE(rr.mismatch.find("steps"), std::string::npos)
        << rr.mismatch;

    // A switch to a thread that cannot run at that point is a strict
    // divergence (tolerant mode exists for exactly this).
    ASSERT_FALSE(rf.log.switches.empty());
    ReplayLog broken = rf.log;
    broken.switches[0].tid = 9999;
    rr = replayLog(*rf.target.plain, broken, vm::ExecEngine::Fused);
    EXPECT_FALSE(rr.faithful);
}

TEST(ReplayVm, WrappedRingRecordingRefusesToBecomeALog)
{
    RecordedFailure rf;
    ASSERT_TRUE(testutil::recordFailure("ZSNES", rf));

    // Re-run the same failing schedule with a tiny ring: it wraps, and
    // buildReplayLog must hard-error with the drop count rather than
    // produce a log that replays a truncated prefix.
    FlightRecorder tiny(1); // RecorderMode::Ring
    vm::VmConfig cfg = rf.cfg;
    cfg.recorder = &tiny;
    cfg.recordSharedAccesses = true;
    vm::RunResult r = vm::runProgram(*rf.target.plain, cfg);
    ASSERT_GT(tiny.droppedAll(), 0u);

    ReplayLog log;
    std::string err;
    EXPECT_FALSE(buildReplayLog(rf.log.program, rf.log.scheduleToken,
                                rf.cfg, tiny, r, log, err));
    EXPECT_NE(err.find("events dropped"), std::string::npos) << err;
    EXPECT_NE(err.find(std::to_string(tiny.droppedAll())),
              std::string::npos)
        << err;
}

TEST(ReplayVm, LogRoundTripsThroughDisk)
{
    RecordedFailure rf;
    ASSERT_TRUE(testutil::recordFailure("ZSNES", rf));

    conair::testutil::TempPath tmp("conair_replay_roundtrip.log");
    const std::string &path = tmp.str();
    std::string err;
    ASSERT_TRUE(saveReplayLog(path, rf.log, err)) << err;
    ReplayLog loaded;
    ASSERT_TRUE(loadReplayLog(path, loaded, err)) << err;
    EXPECT_EQ(loaded, rf.log);

    ReplayRun rr =
        replayLog(*rf.target.plain, loaded, vm::ExecEngine::Fused);
    EXPECT_TRUE(rr.faithful) << rr.mismatch;
}

TEST(ReplayVm, TimelineRendersRecordedRun)
{
    RecordedFailure rf;
    ASSERT_TRUE(testutil::recordFailure("ZSNES", rf));
    std::string t = replayTimeline(rf.log);
    EXPECT_NE(t.find("ZSNES"), std::string::npos);
    EXPECT_NE(t.find(rf.log.outcome), std::string::npos);
    EXPECT_EQ(t, replayTimeline(rf.log));
}

} // namespace
} // namespace conair::obs::replay
