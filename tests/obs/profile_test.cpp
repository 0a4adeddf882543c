/**
 * @file
 * Recovery-cost profile unit tests (src/obs/profile/): step
 * classification, the fold of a hand-built RunStats, aggregate merge
 * algebra, and the exporters' structural invariants.  How the VM
 * fills the tally (wasted steps, lock waits, per-thread episodes, and
 * agreement with the trace on all three engine variants) lives in
 * vm_profile_test.cpp; worker-count independence in campaign_test.cpp;
 * byte-exact rendering is pinned by profile_golden_test.cpp.
 */
#include <gtest/gtest.h>

#include "obs/profile/profile.h"
#include "obs/profile/profile_export.h"
#include "support/json.h"
#include "vm/stats.h"

namespace conair::obs::prof {
namespace {

TEST(ClassifyPhase, MapsOpcodesAndBuiltins)
{
    using ir::Builtin;
    using ir::Opcode;
    EXPECT_EQ(classifyPhase(Opcode::Load, Builtin::None),
              Phase::Memory);
    EXPECT_EQ(classifyPhase(Opcode::Store, Builtin::None),
              Phase::Memory);
    EXPECT_EQ(classifyPhase(Opcode::Add, Builtin::None),
              Phase::Dispatch);
    EXPECT_EQ(classifyPhase(Opcode::CondBr, Builtin::None),
              Phase::Dispatch);
    // The builtin only matters on Call steps.
    EXPECT_EQ(classifyPhase(Opcode::Add, Builtin::MutexLock),
              Phase::Dispatch);

    EXPECT_EQ(classifyPhase(Opcode::Call, Builtin::MutexLock),
              Phase::Sync);
    EXPECT_EQ(classifyPhase(Opcode::Call, Builtin::ThreadJoin),
              Phase::Sync);
    EXPECT_EQ(classifyPhase(Opcode::Call, Builtin::Yield), Phase::Sync);
    EXPECT_EQ(classifyPhase(Opcode::Call, Builtin::Malloc),
              Phase::Memory);
    EXPECT_EQ(classifyPhase(Opcode::Call, Builtin::Free),
              Phase::Memory);
    EXPECT_EQ(classifyPhase(Opcode::Call, Builtin::CaCheckpoint),
              Phase::CheckpointSave);
    EXPECT_EQ(classifyPhase(Opcode::Call, Builtin::CaCheckpointLocals),
              Phase::CheckpointSave);
    EXPECT_EQ(classifyPhase(Opcode::Call, Builtin::CaTryRollback),
              Phase::Rollback);
    EXPECT_EQ(classifyPhase(Opcode::Call, Builtin::CaBackoff),
              Phase::Backoff);
    // Plain calls (user functions, prints, compensation notes).
    EXPECT_EQ(classifyPhase(Opcode::Call, Builtin::None),
              Phase::Dispatch);
    EXPECT_EQ(classifyPhase(Opcode::Call, Builtin::PrintI64),
              Phase::Dispatch);
}

TEST(PhaseName, AllEightAreStableAndDistinct)
{
    const char *expected[kPhaseCount] = {
        "dispatch", "memory",          "sync",     "lock_wait",
        "checkpoint_save", "rollback", "reexec",   "backoff"};
    for (size_t i = 0; i < kPhaseCount; ++i)
        EXPECT_STREQ(phaseName(Phase(i)), expected[i]);
}

/** A hand-built run: 10 dispatch steps, then one two-retry episode at
 *  assert.f.1 (9 re-executed steps, 14 wasted, 3 back-off ticks) and a
 *  one-retry episode at oracle.g.2 on another thread. */
vm::RunStats
sampleRun()
{
    vm::RunStats run;
    run.phaseTicks[size_t(Phase::Dispatch)] = 10;
    run.phaseTicks[size_t(Phase::Rollback)] = 3;
    run.phaseTicks[size_t(Phase::Reexec)] = 13;
    run.phaseTicks[size_t(Phase::Backoff)] = 3;
    vm::RecoveryEvent a{"assert.f.1", 2, 100, 140};
    a.ckptDistanceTicks = 7;
    a.reexecSteps = 9;
    a.wastedSteps = 14;
    a.backoffTicks = 3;
    vm::RecoveryEvent b{"oracle.g.2", 1, 150, 160};
    b.tid = 1;
    b.ckptDistanceTicks = 2;
    b.reexecSteps = 4;
    b.wastedSteps = 6;
    run.recoveries = {a, b};
    return run;
}

TEST(ProfileAgg, AddFoldsRunStatsIntoTheExactJson)
{
    ProfileAgg a;
    a.add(sampleRun());
    JsonWriter w(0);
    a.writeJson(w);
    EXPECT_EQ(
        w.str(),
        R"({"runs":1,"total_ticks":29,"phases":{"dispatch":10,"memory":0,)"
        R"("sync":0,"lock_wait":0,"checkpoint_save":0,"rollback":3,)"
        R"("reexec":13,"backoff":3},"recovery_tax":{"episodes":2,)"
        R"("retries":3,"reexec_steps":13,"reexec_steps_per_episode":6.500,)"
        R"("wasted_steps":20,"backoff_ticks":3,"ckpt_distance_ticks":9,)"
        R"("by_site":{"assert.f.1":{"episodes":1,"reexec_steps":9},)"
        R"("oracle.g.2":{"episodes":1,"reexec_steps":4}}}})");
}

TEST(ProfileAgg, RunWithoutRecoveriesAddsNoEpisode)
{
    // CaRecovered fires on every success pass of a hardened site; only
    // sites that actually rolled back leave a RecoveryEvent to fold.
    vm::RunStats run;
    run.phaseTicks[size_t(Phase::Dispatch)] = 5;
    ProfileAgg a;
    a.add(run);
    EXPECT_EQ(a.runs, 1u);
    EXPECT_EQ(a.totalTicks(), 5u);
    EXPECT_EQ(a.episodes, 0u);
    EXPECT_EQ(a.retries, 0u);
    EXPECT_TRUE(a.episodesBySite.empty());
    EXPECT_DOUBLE_EQ(a.reexecPerEpisode(), 0.0);
}

TEST(ProfileAgg, AddFoldsARunAndMergeIsAssociative)
{
    const vm::RunStats run = sampleRun();

    ProfileAgg a;
    EXPECT_TRUE(a.empty());
    a.add(run);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a.runs, 1u);
    EXPECT_EQ(a.episodes, 2u);
    EXPECT_EQ(a.retries, 3u);
    EXPECT_EQ(a.reexecSteps, 13u);
    EXPECT_EQ(a.wastedSteps, 20u);
    EXPECT_EQ(a.ckptDistanceTicks, 9u);
    EXPECT_EQ(a.episodesBySite.at("assert.f.1"), 1u);
    EXPECT_EQ(a.reexecBySite.at("assert.f.1"), 9u);
    EXPECT_DOUBLE_EQ(a.reexecPerEpisode(), 6.5);

    ProfileAgg b;
    b.add(run);
    b.add(run);

    // (a + b) == (b + a): merge is commutative on every field, which
    // is what lets the campaign fold per-cell aggregates in matrix
    // order regardless of which worker produced them.
    ProfileAgg ab = a, ba = b;
    ab.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab, ba);
    EXPECT_EQ(ab.runs, 3u);
    EXPECT_EQ(ab.episodes, 6u);
    EXPECT_EQ(ab.totalTicks(), 3 * a.totalTicks());
}

TEST(ProfileAgg, JsonShapeIsStable)
{
    ProfileAgg a;
    vm::RunStats run;
    run.phaseTicks[size_t(Phase::Memory)] = 5;
    run.recoveries.push_back({"oracle.g.2", 1, 0, 2});
    a.add(run);

    JsonWriter w(0);
    a.writeJson(w);
    std::string j = w.str();
    for (const char *key :
         {"\"runs\"", "\"total_ticks\"", "\"phases\"", "\"dispatch\"",
          "\"backoff\"", "\"recovery_tax\"", "\"episodes\"",
          "\"reexec_steps_per_episode\"", "\"by_site\"",
          "\"oracle.g.2\""})
        EXPECT_NE(j.find(key), std::string::npos) << key << " in " << j;

    JsonWriter w2(0);
    a.writeJson(w2);
    EXPECT_EQ(j, w2.str()); // deterministic byte-for-byte
}

/** A small two-group doc with one wall cell, used by the exporter
 *  tests below. */
ProfileDoc
sampleDoc()
{
    vm::RunStats run;
    run.phaseTicks[size_t(Phase::Dispatch)] = 70;
    run.phaseTicks[size_t(Phase::Memory)] = 20;
    run.phaseTicks[size_t(Phase::Reexec)] = 10;
    vm::RecoveryEvent ep{"assert.f.1", 1, 0, 50};
    ep.ckptDistanceTicks = 3;
    ep.reexecSteps = 10;
    ep.wastedSteps = 90;
    run.recoveries.push_back(ep);

    ProfileDoc doc;
    ProfileAgg a;
    a.add(run);
    doc.phaseGroups.emplace_back("ZSNES/pct:d2", a);
    ProfileAgg b;
    b.add(run);
    b.add(run);
    doc.phaseGroups.emplace_back("ZSNES/random", b);
    doc.wall.push_back({"ZSNES", "pct:d2", "hardened", 1234, 2});
    return doc;
}

TEST(Exporters, SpeedscopeIsStructurallyValid)
{
    ProfileDoc doc = sampleDoc();
    std::string j = speedscopeJson(doc, "unit test");

    EXPECT_NE(
        j.find("https://www.speedscope.app/file-format-schema.json"),
        std::string::npos);
    EXPECT_NE(j.find("\"name\": \"unit test\""), std::string::npos);
    EXPECT_NE(j.find("\"frames\""), std::string::npos);
    EXPECT_NE(j.find("\"type\": \"sampled\""), std::string::npos);
    EXPECT_NE(j.find("\"phases (virtual ticks)\""), std::string::npos);
    // The wall cell produced the second profile.
    EXPECT_NE(j.find("\"campaign wall clock\""), std::string::npos);
    EXPECT_NE(j.find("\"microseconds\""), std::string::npos);
    // Group labels and phase names are interned as frames.
    EXPECT_NE(j.find("\"ZSNES/pct:d2\""), std::string::npos);
    EXPECT_NE(j.find("\"reexec\""), std::string::npos);

    // Without wall cells only the deterministic profile is emitted.
    doc.wall.clear();
    std::string noWall = speedscopeJson(doc, "unit test");
    EXPECT_EQ(noWall.find("campaign wall clock"), std::string::npos);
    EXPECT_EQ(noWall, speedscopeJson(doc, "unit test")); // deterministic
}

TEST(Exporters, FoldedStacksOneLinePerNonzeroCell)
{
    ProfileDoc doc = sampleDoc();
    std::string folded = foldedStacks(doc);
    EXPECT_NE(folded.find("ZSNES/pct:d2;dispatch 70\n"),
              std::string::npos)
        << folded;
    EXPECT_NE(folded.find("ZSNES/pct:d2;reexec 10\n"),
              std::string::npos);
    EXPECT_NE(folded.find("ZSNES/random;memory 40\n"),
              std::string::npos);
    EXPECT_NE(folded.find("wall;ZSNES;pct:d2;hardened 1234\n"),
              std::string::npos);
    // Zero-tick phases are omitted entirely.
    EXPECT_EQ(folded.find("lock_wait"), std::string::npos);
    EXPECT_EQ(folded.find(" 0\n"), std::string::npos);
}

TEST(Exporters, HotPhaseTableRanksAndSumsTheTax)
{
    ProfileDoc doc = sampleDoc();
    std::string table = hotPhaseTable(doc);
    // dispatch (210 over both groups) outranks memory (60).
    size_t dispatchAt = table.find("dispatch");
    size_t memoryAt = table.find("memory");
    ASSERT_NE(dispatchAt, std::string::npos);
    ASSERT_NE(memoryAt, std::string::npos);
    EXPECT_LT(dispatchAt, memoryAt);
    EXPECT_NE(table.find("total"), std::string::npos);
    // The tax line aggregates all groups: 3 episodes, 3 retries.
    EXPECT_NE(table.find("recovery tax: 3 episodes, 3 retries"),
              std::string::npos)
        << table;

    // topN truncates the ranking but never the total line.
    std::string top1 = hotPhaseTable(doc, 1);
    EXPECT_NE(top1.find("dispatch"), std::string::npos);
    EXPECT_EQ(top1.find("memory"), std::string::npos);
    EXPECT_NE(top1.find("total"), std::string::npos);
}

} // namespace
} // namespace conair::obs::prof
