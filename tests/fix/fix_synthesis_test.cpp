/**
 * @file
 * Fix synthesis over all ten bug kernels (quick label).
 *
 * For every kernel: record its scripted first failure, diagnose it,
 * synthesize the fix, and pin the whole static contract —
 *
 *  - the verdict matches the kernel's Table 2 root cause and the fix
 *    strategy matches the verdict (wait-for-value for order bugs,
 *    lock-guard for atomicity/lost-update, lock-order for deadlocks);
 *  - the patched module re-verifies and its IR text round-trips;
 *  - the recorded (ddmin-minimised) failing schedule, replayed
 *    tolerantly against the patched build, no longer fails.
 *
 * The dynamic regression proof (full campaign matrix on the patched
 * build) lives in fix_validate_quick_test.cpp / fix_validate_test.cpp.
 */
#include <gtest/gtest.h>

#include "fix/fix.h"
#include "fix/report.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "obs/replay/replay_run.h"
#include "support/diag.h"
#include "tests/fix/fix_test_util.h"

namespace conair::fixtest {
namespace {

using fix::Strategy;

/** The strategy each kernel's diagnosis must dispatch to, plus the
 *  lock the guard fixes are expected to reuse ("" = fresh or none). */
struct Expected
{
    Strategy strategy;
    const char *variable;
    const char *existingMutex;
};

Expected
expectedFix(const std::string &app)
{
    if (app == "FFT")
        return {Strategy::WaitForValue, "im_energy", ""};
    if (app == "HawkNL")
        return {Strategy::LockOrder, "nlock", ""};
    if (app == "HTTrack")
        return {Strategy::WaitForValue, "opt", ""};
    if (app == "MozillaJS")
        return {Strategy::LockOrder, "gc_lock", ""};
    if (app == "MozillaXP")
        return {Strategy::WaitForValue, "m_thd", ""};
    if (app == "MySQL1")
        return {Strategy::LockGuard, "log_open", "log_lock"};
    if (app == "MySQL2")
        return {Strategy::LockGuard, "table_cache", "cache_lock"};
    if (app == "SQLite")
        return {Strategy::LockOrder, "db_mutex", ""};
    if (app == "Transmission")
        return {Strategy::WaitForValue, "session_bandwidth", ""};
    if (app == "ZSNES")
        return {Strategy::WaitForValue, "sound_ready", ""};
    return {Strategy::None, "", ""};
}

class FixSynthesis : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FixSynthesis, SynthesizesTheVerdictMatchedPatch)
{
    const std::string name = GetParam();
    ScriptedFailure sf;
    std::string err;
    ASSERT_TRUE(recordScriptedFailure(name, /*wantLog=*/true, sf, err))
        << err;

    const Expected exp = expectedFix(name);
    const obs::pm::EpisodeReport *primary = sf.report.primary();
    ASSERT_NE(primary, nullptr);
    EXPECT_TRUE(obs::pm::verdictMatchesRootCause(
        primary->verdict, apps::rootCauseName(sf.app.spec->rootCause)))
        << obs::pm::verdictName(primary->verdict) << " vs "
        << apps::rootCauseName(sf.app.spec->rootCause);

    fix::FixPlan plan = fix::synthesizeFix(*sf.target.plain, sf.report);
    ASSERT_TRUE(plan.ok) << plan.error;
    ASSERT_NE(plan.patched, nullptr);
    EXPECT_EQ(plan.strategy, exp.strategy)
        << fix::strategyName(plan.strategy);
    EXPECT_EQ(plan.variable, exp.variable);
    EXPECT_FALSE(plan.edits.empty());
    if (*exp.existingMutex) {
        EXPECT_TRUE(plan.usedExistingMutex);
        EXPECT_EQ(plan.mutexName, exp.existingMutex);
    }

    // The patch is a well-formed module: verifier-clean and
    // print/parse round-trippable.
    DiagEngine d;
    EXPECT_TRUE(ir::verifyModule(*plan.patched, d)) << d.str();
    std::string printed = ir::printModule(*plan.patched);
    DiagEngine d2;
    auto reparsed = ir::parseModule(printed, d2);
    ASSERT_NE(reparsed, nullptr) << d2.str();
    EXPECT_EQ(ir::printModule(*reparsed), printed);

    // The minimised failing schedule no longer reproduces: tolerant
    // replay of the recorded switches ends fully correct.
    ASSERT_TRUE(sf.hasLog);
    vm::RunResult r = obs::replay::replayTolerant(
        *plan.patched, sf.log, sf.log.switches, sf.log.engine);
    EXPECT_EQ(r.outcome, vm::Outcome::Success)
        << vm::outcomeName(r.outcome) << " @ " << r.failureTag;
    if (sf.target.checkOutput) {
        EXPECT_EQ(r.output, sf.target.expectedOutput);
    }
    EXPECT_EQ(r.exitCode, sf.target.expectedExit);

    // And the patch report names the essentials.
    std::string text = fix::renderPatchText(plan);
    EXPECT_NE(text.find(name), std::string::npos);
    EXPECT_NE(text.find(fix::strategyName(plan.strategy)),
              std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, FixSynthesis,
    ::testing::Values("FFT", "HawkNL", "HTTrack", "MozillaXP",
                      "MozillaJS", "MySQL1", "MySQL2", "Transmission",
                      "SQLite", "ZSNES"),
    [](const auto &info) { return info.param; });

TEST(FixSynthesisErrors, UnknownVerdictHasNoStrategy)
{
    const apps::AppSpec *spec = apps::findApp("ZSNES");
    ASSERT_NE(spec, nullptr);
    apps::CampaignApp app = apps::prepareCampaignApp(*spec);

    obs::pm::RecoveryReport rep;
    rep.program = "ZSNES";
    obs::pm::EpisodeReport ep;
    ep.verdict = obs::pm::Verdict::Unknown;
    ep.variable = "sound_ready";
    rep.episodes.push_back(ep);

    fix::FixPlan plan =
        fix::synthesizeFix(*app.plain.module, rep);
    EXPECT_FALSE(plan.ok);
    EXPECT_EQ(plan.strategy, Strategy::None);
    EXPECT_NE(plan.error.find("verdict"), std::string::npos)
        << plan.error;
    EXPECT_EQ(plan.patched, nullptr);
}

TEST(FixSynthesisErrors, EmptyReportIsRejected)
{
    const apps::AppSpec *spec = apps::findApp("ZSNES");
    ASSERT_NE(spec, nullptr);
    apps::CampaignApp app = apps::prepareCampaignApp(*spec);
    fix::FixPlan plan =
        fix::synthesizeFix(*app.plain.module, obs::pm::RecoveryReport{});
    EXPECT_FALSE(plan.ok);
    EXPECT_FALSE(plan.error.empty());
}

TEST(FixSynthesisErrors, StrategyNamesAreStable)
{
    EXPECT_STREQ(fix::strategyName(Strategy::None), "none");
    EXPECT_STREQ(fix::strategyName(Strategy::WaitForValue),
                 "wait-for-value");
    EXPECT_STREQ(fix::strategyName(Strategy::LockGuard), "lock-guard");
    EXPECT_STREQ(fix::strategyName(Strategy::LockOrder), "lock-order");
}

} // namespace
} // namespace conair::fixtest
