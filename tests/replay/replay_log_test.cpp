/**
 * @file
 * The ReplayLog model: byte-identical serialisation round-trips,
 * strict rejection of malformed logs, the wrapped-ring refusal,
 * Grow-mode recording, and loading logs that name a retired engine.
 */
#include <gtest/gtest.h>

#include "obs/replay/replay_export.h"
#include "obs/replay/replay_log.h"
#include "obs/replay/replay_run.h"
#include "tests/replay/replay_test_util.h"

namespace conair::obs::replay {
namespace {

ReplayLog
sampleLog()
{
    ReplayLog log;
    log.program = "MySQL1";
    log.scheduleToken = "pct:d2:s17";
    log.engine = vm::ExecEngine::Reference;
    log.policy = vm::SchedPolicy::Pct;
    log.depth = 2;
    log.horizon = 1234;
    log.quantum = 40;
    log.seed = 17;
    log.appSeed = 99;
    log.maxSteps = 2'000'000;
    log.hangTimeout = 100'000;
    log.maxRetries = -1;
    log.backoffMax = 32;
    log.chaosEveryN = 0;
    log.chaosMaxRollbacks = 10'000;
    log.delays.push_back({3, 200, 1});
    log.switches = {{10, 1}, {57, 0}, {213, 2}};
    log.locks = {{12, 1, 5}, {60, 0, 5}};
    log.accessCount = 42;
    log.accessDigest = 0xdeadbeefcafef00dull;
    log.outcome = "segfault";
    log.failureTag = "buf_read.12";
    log.exitCode = 0;
    log.finalClock = 4417;
    log.finalSteps = 390;
    log.schedTicks = 77;
    log.memDigest = 0x0123456789abcdefull;
    return log;
}

TEST(ReplayLog, SerializeParsesBackByteIdentically)
{
    const ReplayLog log = sampleLog();
    const std::string text = log.serialize();

    ReplayLog parsed;
    std::string err;
    ASSERT_TRUE(parseReplayLog(text, parsed, err)) << err;
    EXPECT_EQ(parsed, log);
    EXPECT_EQ(parsed.serialize(), text);
}

TEST(ReplayLog, EngineNamesRoundTrip)
{
    for (vm::ExecEngine e :
         {vm::ExecEngine::Reference, vm::ExecEngine::Fused}) {
        vm::ExecEngine back{};
        ASSERT_TRUE(engineFromName(engineName(e), back));
        EXPECT_EQ(back, e);
    }
    EXPECT_STREQ(engineName(vm::ExecEngine::Fused), "fused");
    vm::ExecEngine e{};
    ASSERT_TRUE(engineFromName("decoded", e));
    EXPECT_EQ(e, vm::ExecEngine::Fused);
    EXPECT_FALSE(engineFromName("turbo", e));
}

TEST(ReplayLog, V1LogNamingDecodedEngineReplays)
{
    // Logs written before the Decoded engine was folded into Fused say
    // "engine decoded"; they must keep parsing, read as Fused, and
    // replay faithfully, since the two executed identically.
    testutil::RecordedFailure rf;
    ASSERT_TRUE(testutil::recordFailure("ZSNES", rf));
    std::string text = rf.log.serialize();
    ASSERT_EQ(text.rfind("conair-replay v1\n", 0), 0u);
    const std::string line = "engine fused\n";
    size_t pos = text.find(line);
    ASSERT_NE(pos, std::string::npos) << text;
    text.replace(pos, line.size(), "engine decoded\n");

    ReplayLog old;
    std::string err;
    ASSERT_TRUE(parseReplayLog(text, old, err)) << err;
    EXPECT_EQ(old.engine, vm::ExecEngine::Fused);
    EXPECT_EQ(old, rf.log);
    ReplayRun rr = replayLog(*rf.target.plain, old, old.engine);
    EXPECT_TRUE(rr.faithful) << rr.mismatch;
}

TEST(ReplayLog, ParserRejectsMalformedInput)
{
    const std::string good = sampleLog().serialize();
    ReplayLog out;
    std::string err;

    // Every corruption must produce a parse error naming its line.
    auto corrupt = [&](const std::string &from, const std::string &to) {
        std::string text = good;
        size_t pos = text.find(from);
        ASSERT_NE(pos, std::string::npos) << from;
        text.replace(pos, from.size(), to);
        EXPECT_FALSE(parseReplayLog(text, out, err)) << from;
        EXPECT_NE(err.find("line"), std::string::npos) << err;
    };

    corrupt("conair-replay v1", "conair-replay v2");
    corrupt("engine reference", "engine quantum");
    corrupt("policy pct", "policy lotto");
    corrupt("seed 17", "seed banana");
    corrupt("seed 17", "seed 18446744073709551616"); // overflow
    corrupt("seed 17", "seed +17");                  // sign prefix
    corrupt("depth 2", "depth 4294967296");          // > uint32
    corrupt("exit 0", "exit --1");
    corrupt("memdigest", "memdigest 0x"); // becomes key w/ junk value
    corrupt("accesses 42", "accesses fortytwo");
    corrupt("switches 3", "switches 2");  // count/list mismatch
    corrupt("s 57 0", "s 5 0");           // steps not increasing
    corrupt("s 213 2", "switch 213 2");   // bad record marker
    corrupt("l 60 0 5", "l 60 junk 5");
    corrupt("end", "fin");
    corrupt("steps 390", "stepz 390");    // unknown key

    // Truncation (drop the tail from a marker on) must also fail.
    for (const char *marker : {"s 213", "locks 2", "end"}) {
        std::string text = good.substr(0, good.find(marker));
        EXPECT_FALSE(parseReplayLog(text, out, err)) << marker;
    }
    EXPECT_FALSE(parseReplayLog("", out, err));
}

TEST(ReplayLog, ParserReportsLineNumbers)
{
    std::string text = sampleLog().serialize();
    size_t pos = text.find("quantum 40");
    text.replace(pos, 10, "quantum x");
    ReplayLog out;
    std::string err;
    ASSERT_FALSE(parseReplayLog(text, out, err));
    // "quantum" is the 8th line of the fixed serialisation order.
    EXPECT_NE(err.find("line 8"), std::string::npos) << err;
    EXPECT_NE(err.find("quantum"), std::string::npos) << err;
}

TEST(ReplayLog, WrappedRingRefusesToBuildWithDropCount)
{
    FlightRecorder rec(2); // RecorderMode::Ring
    for (uint64_t i = 0; i < 5; ++i)
        rec.record(0, EventKind::SchedSwitch, i * 10, i * 10, 0, 1);
    ASSERT_EQ(rec.droppedAll(), 3u);

    vm::VmConfig cfg;
    vm::RunResult result;
    ReplayLog log;
    std::string err;
    EXPECT_FALSE(
        buildReplayLog("app", "", cfg, rec, result, log, err));
    EXPECT_NE(err.find("3 events dropped"), std::string::npos) << err;
}

TEST(ReplayLog, GrowModeNeverDropsAndBuilds)
{
    FlightRecorder rec(2, RecorderMode::Grow);
    for (uint64_t i = 0; i < 100; ++i)
        rec.record(uint32_t(i % 3), EventKind::SchedSwitch, i * 4,
                   i * 4, 0, 3);
    EXPECT_EQ(rec.droppedAll(), 0u);
    EXPECT_EQ(rec.mode(), RecorderMode::Grow);

    vm::VmConfig cfg;
    vm::RunResult result;
    ReplayLog log;
    std::string err;
    ASSERT_TRUE(buildReplayLog("app", "", cfg, rec, result, log, err))
        << err;
    EXPECT_EQ(log.switches.size(), 100u);
}

TEST(ReplayLog, WholeProgramCheckpointRunsRefuse)
{
    FlightRecorder rec(64, RecorderMode::Grow);
    vm::VmConfig cfg;
    cfg.wpCheckpointInterval = 100;
    vm::RunResult result;
    ReplayLog log;
    std::string err;
    EXPECT_FALSE(
        buildReplayLog("app", "", cfg, rec, result, log, err));
    EXPECT_NE(err.find("checkpoint"), std::string::npos) << err;
}

TEST(ReplayLog, CorruptSwitchOrderRefusesToBuild)
{
    FlightRecorder rec(64, RecorderMode::Grow);
    rec.record(0, EventKind::SchedSwitch, 50, 50, 0, 2);
    rec.record(1, EventKind::SchedSwitch, 50, 40, 0, 2); // regresses
    vm::VmConfig cfg;
    vm::RunResult result;
    ReplayLog log;
    std::string err;
    EXPECT_FALSE(
        buildReplayLog("app", "", cfg, rec, result, log, err));
    EXPECT_NE(err.find("corrupt"), std::string::npos) << err;
}

TEST(ReplayTimeline, RendersDeterministically)
{
    const ReplayLog log = sampleLog();
    const std::string t = replayTimeline(log);
    EXPECT_EQ(t, replayTimeline(log));
    EXPECT_NE(t.find("MySQL1"), std::string::npos);
    EXPECT_NE(t.find("token pct:d2:s17"), std::string::npos);
    EXPECT_NE(t.find("switch -> T1"), std::string::npos);
    EXPECT_NE(t.find("T1 acquires mutex block 5"), std::string::npos);
    EXPECT_NE(t.find("end: segfault (buf_read.12)"),
              std::string::npos);
    // Chronological: the step-10 switch renders before the step-12
    // lock, which renders before the step-57 switch.
    EXPECT_LT(t.find("switch -> T1"), t.find("acquires mutex"));
    EXPECT_LT(t.find("acquires mutex"), t.find("switch -> T0"));
}

} // namespace
} // namespace conair::obs::replay
