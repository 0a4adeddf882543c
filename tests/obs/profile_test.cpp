/**
 * @file
 * Recovery-cost profiler unit tests (src/obs/profile/): step
 * classification, episode lifecycle bookkeeping, aggregate fold/merge
 * algebra, and the exporters' structural invariants.  The end-to-end
 * properties — passivity on all three engine variants and worker-count
 * independence — live in vm_profile_test.cpp and campaign_test.cpp;
 * byte-exact rendering is pinned by profile_golden_test.cpp.
 */
#include <gtest/gtest.h>

#include "obs/profile/profile.h"
#include "obs/profile/profile_export.h"
#include "support/json.h"

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

TEST(PhaseProfiler, EpisodeLifecycleRollsUpTheTax)
{
    PhaseProfiler p;
    EXPECT_TRUE(p.empty());

    // Normal execution: 10 dispatch steps since the last checkpoint.
    p.onCheckpoint(0);
    p.onSteps(0, Phase::Dispatch, 10);

    // First rollback opens the episode: the 10 steps are wasted, the
    // checkpoint distance is recorded.
    p.onRollback(0, "assert.f.1", 7);
    p.onSteps(0, Phase::Reexec, 4); // re-execution toward the site
    p.onBackoff(0, 3);

    // Second retry wastes the 4 re-executed steps too.
    p.onRollback(0, "assert.f.1", 7);
    p.onSteps(0, Phase::Reexec, 5);
    p.onRecovered(0, 2, 100, 140);

    ASSERT_EQ(p.episodes().size(), 1u);
    const EpisodeCost &ep = p.episodes()[0];
    EXPECT_EQ(ep.siteTag, "assert.f.1");
    EXPECT_EQ(ep.tid, 0u);
    EXPECT_EQ(ep.retries, 2u);
    EXPECT_EQ(ep.ckptDistanceTicks, 7u);
    EXPECT_EQ(ep.reexecSteps, 9u);
    EXPECT_EQ(ep.wastedSteps, 14u); // 10 before + 4 re-executed
    EXPECT_EQ(ep.backoffTicks, 3u);
    EXPECT_EQ(ep.startClock, 100u);
    EXPECT_EQ(ep.endClock, 140u);

    EXPECT_EQ(p.phaseTicks(Phase::Dispatch), 10u);
    EXPECT_EQ(p.phaseTicks(Phase::Reexec), 9u);
    EXPECT_EQ(p.phaseTicks(Phase::Backoff), 3u);
    EXPECT_EQ(p.totalTicks(), 22u);

    p.clear();
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.episodes().size(), 0u);
}

TEST(PhaseProfiler, RecoveredWithoutRollbackIsNoEpisode)
{
    // CaRecovered fires on every success pass of a hardened site; only
    // sites that actually rolled back have an episode to close.
    PhaseProfiler p;
    p.onStep(1, Phase::Dispatch);
    p.onRecovered(1, 0, 10, 10);
    EXPECT_TRUE(p.episodes().empty());
}

TEST(PhaseProfiler, ThreadsKeepIndependentEpisodes)
{
    PhaseProfiler p;
    p.onRollback(1, "site.a", 2);
    p.onRollback(2, "site.b", 5);
    p.onSteps(1, Phase::Reexec, 3);
    p.onSteps(2, Phase::Reexec, 8);
    p.onRecovered(2, 1, 0, 9);
    p.onRecovered(1, 1, 0, 11);
    ASSERT_EQ(p.episodes().size(), 2u);
    // Closed in completion order, each with its own thread's numbers.
    EXPECT_EQ(p.episodes()[0].siteTag, "site.b");
    EXPECT_EQ(p.episodes()[0].reexecSteps, 8u);
    EXPECT_EQ(p.episodes()[1].siteTag, "site.a");
    EXPECT_EQ(p.episodes()[1].reexecSteps, 3u);
}

TEST(PhaseProfiler, WaitsBookTicksNotSteps)
{
    PhaseProfiler p;
    p.onWait(Phase::LockWait, 12);
    p.onWait(Phase::LockWait, 3);
    EXPECT_EQ(p.phaseTicks(Phase::LockWait), 15u);
    // Waits never touch the per-thread step-since-checkpoint counter:
    // a rollback right after sees zero wasted steps.
    p.onRollback(0, "s", 1);
    p.onRecovered(0, 1, 0, 1);
    EXPECT_EQ(p.episodes()[0].wastedSteps, 0u);
}

TEST(ProfileAgg, AddFoldsARunAndMergeIsAssociative)
{
    PhaseProfiler p;
    p.onSteps(0, Phase::Dispatch, 6);
    p.onRollback(0, "assert.f.1", 4);
    p.onSteps(0, Phase::Reexec, 2);
    p.onRecovered(0, 1, 0, 10);

    ProfileAgg a;
    EXPECT_TRUE(a.empty());
    a.add(p);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a.runs, 1u);
    EXPECT_EQ(a.episodes, 1u);
    EXPECT_EQ(a.retries, 1u);
    EXPECT_EQ(a.reexecSteps, 2u);
    EXPECT_EQ(a.wastedSteps, 6u);
    EXPECT_EQ(a.ckptDistanceTicks, 4u);
    EXPECT_EQ(a.episodesBySite.at("assert.f.1"), 1u);
    EXPECT_EQ(a.reexecBySite.at("assert.f.1"), 2u);
    EXPECT_DOUBLE_EQ(a.reexecPerEpisode(), 2.0);

    ProfileAgg b;
    b.add(p);
    b.add(p);

    // (a + b) == (b + a): merge is commutative on every field, which
    // is what lets the campaign fold per-cell aggregates in matrix
    // order regardless of which worker produced them.
    ProfileAgg ab = a, ba = b;
    ab.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab, ba);
    EXPECT_EQ(ab.runs, 3u);
    EXPECT_EQ(ab.episodes, 3u);
    EXPECT_EQ(ab.totalTicks(), 3 * p.totalTicks());
}

TEST(ProfileAgg, JsonShapeIsStable)
{
    ProfileAgg a;
    PhaseProfiler p;
    p.onSteps(0, Phase::Memory, 5);
    p.onRollback(0, "oracle.g.2", 1);
    p.onRecovered(0, 1, 0, 2);
    a.add(p);

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
    PhaseProfiler p;
    p.onSteps(0, Phase::Dispatch, 70);
    p.onSteps(0, Phase::Memory, 20);
    p.onRollback(0, "assert.f.1", 3);
    p.onSteps(0, Phase::Reexec, 10);
    p.onRecovered(0, 1, 0, 50);

    ProfileDoc doc;
    ProfileAgg a;
    a.add(p);
    doc.phaseGroups.emplace_back("ZSNES/pct:d2", a);
    ProfileAgg b;
    b.add(p);
    b.add(p);
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
