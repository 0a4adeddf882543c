/**
 * @file
 * The engine matrix the cross-engine tests run every program through
 * — the production Fused engine, the same engine with the scheduler
 * burst off (every instruction through its per-instruction handlers,
 * none through the superinstruction burst), and the Reference
 * tree-walking referee — and the equality relation their runs must
 * satisfy.
 */
#pragma once

#include <string>

#include <gtest/gtest.h>

#include "vm/config.h"
#include "vm/interp.h"
#include "vm/stats.h"

namespace conair::testutil {

struct EngineVariant
{
    const char *name;
    vm::ExecEngine engine;
    bool burst; ///< VmConfig::schedFastPath

    void
    applyTo(vm::VmConfig &cfg) const
    {
        cfg.engine = engine;
        cfg.schedFastPath = burst;
    }
};

inline constexpr EngineVariant kEngineVariants[] = {
    {"fused", vm::ExecEngine::Fused, true},
    {"fused/no-burst", vm::ExecEngine::Fused, false},
    {"reference", vm::ExecEngine::Reference, true},
};

/** Equality over everything semantic a run reports.  Engine-internal
 *  counters (fastPathSteps, hintRulesTracked) are deliberately
 *  excluded: they describe *how* the engine ran, not what the program
 *  did. */
inline void
expectSameRun(const vm::RunResult &a, const vm::RunResult &b,
              const std::string &ctx)
{
    EXPECT_EQ(a.outcome, b.outcome) << ctx;
    EXPECT_EQ(a.exitCode, b.exitCode) << ctx;
    EXPECT_EQ(a.output, b.output) << ctx;
    EXPECT_EQ(a.failureMsg, b.failureMsg) << ctx;
    EXPECT_EQ(a.failureTag, b.failureTag) << ctx;
    EXPECT_EQ(a.clock, b.clock) << ctx;
    EXPECT_EQ(a.memDigest, b.memDigest) << ctx;

    const vm::RunStats &s = a.stats;
    const vm::RunStats &t = b.stats;
    EXPECT_EQ(s.steps, t.steps) << ctx;
    EXPECT_EQ(s.schedTicks, t.schedTicks) << ctx;
    EXPECT_EQ(s.threadsSpawned, t.threadsSpawned) << ctx;
    EXPECT_EQ(s.checkpointsExecuted, t.checkpointsExecuted) << ctx;
    EXPECT_EQ(s.rollbacks, t.rollbacks) << ctx;
    EXPECT_EQ(s.ckptToFailureTicks, t.ckptToFailureTicks) << ctx;
    EXPECT_EQ(s.compensationFrees, t.compensationFrees) << ctx;
    EXPECT_EQ(s.compensationUnlocks, t.compensationUnlocks) << ctx;
    EXPECT_EQ(s.backoffs, t.backoffs) << ctx;
    EXPECT_EQ(s.wpSnapshots, t.wpSnapshots) << ctx;
    EXPECT_EQ(s.wpRecoveries, t.wpRecoveries) << ctx;
    EXPECT_EQ(s.wpSnapshotCost, t.wpSnapshotCost) << ctx;
    EXPECT_EQ(s.chaosRollbacks, t.chaosRollbacks) << ctx;
    EXPECT_EQ(s.chaosSites, t.chaosSites) << ctx;
    EXPECT_EQ(s.phaseTicks, t.phaseTicks) << ctx;
    ASSERT_EQ(s.recoveries.size(), t.recoveries.size()) << ctx;
    for (size_t i = 0; i < s.recoveries.size(); ++i)
        EXPECT_EQ(s.recoveries[i], t.recoveries[i])
            << ctx << " recovery " << i << " (" << s.recoveries[i].siteTag
            << ")";
}

/** Runs @p m on every variant, expects each run to equal the first
 *  (expectSameRun) and returns the first: the production engine's. */
inline vm::RunResult
runEveryVariant(const ir::Module &m, const vm::VmConfig &base = {})
{
    vm::RunResult first;
    for (const EngineVariant &v : kEngineVariants) {
        vm::VmConfig cfg = base;
        v.applyTo(cfg);
        vm::RunResult r = vm::runProgram(m, cfg);
        if (&v == &kEngineVariants[0])
            first = r;
        else
            expectSameRun(first, r, v.name);
    }
    return first;
}

} // namespace conair::testutil
