/**
 * @file
 * Pipeline-level invariants, swept across every bundled application:
 * the relationships between report fields and the transformed IR that
 * must hold regardless of input program.
 */
#include <gtest/gtest.h>

#include "apps/harness.h"
#include "ir/verifier.h"
#include "tests/conair/conair_test_util.h"

namespace conair::ca {
namespace {

class DriverInvariants : public ::testing::TestWithParam<std::string>
{
  protected:
    apps::PreparedApp
    prepared(ConAirOptions opts = {}) const
    {
        apps::HardenOptions h;
        h.conair = opts;
        return apps::prepareApp(*apps::findApp(GetParam()), h);
    }
};

TEST_P(DriverInvariants, RecoverableNeverExceedsIdentified)
{
    apps::PreparedApp p = prepared();
    const ConAirReport &r = p.report;
    EXPECT_LE(r.recoverable.assertion, r.identified.assertion);
    EXPECT_LE(r.recoverable.wrongOutput, r.identified.wrongOutput);
    EXPECT_LE(r.recoverable.segfault, r.identified.segfault);
    EXPECT_LE(r.recoverable.deadlock, r.identified.deadlock);
    EXPECT_EQ(r.identified.total() - r.recoverable.total(),
              r.sitesDroppedByOptimizer);
}

TEST_P(DriverInvariants, StaticPointsMatchInsertedCheckpoints)
{
    apps::PreparedApp p = prepared();
    EXPECT_EQ(p.report.staticReexecPoints,
              p.report.transform.checkpointsInserted);
    EXPECT_EQ(p.report.staticReexecPoints,
              testutil::countBuiltinCalls(*p.module,
                                          ir::Builtin::CaCheckpoint));
}

TEST_P(DriverInvariants, SiteReportsCoverEveryIdentifiedSite)
{
    apps::PreparedApp p = prepared();
    EXPECT_EQ(p.report.sites.size(), p.report.identified.total());
    unsigned interproc = 0;
    for (const SiteReport &s : p.report.sites) {
        interproc += s.interproc;
        if (s.interproc) {
            EXPECT_TRUE(s.recoverable)
                << s.tag << ": promoted sites are never optimized away";
        }
    }
    EXPECT_EQ(interproc, p.report.interprocSites);
}

TEST_P(DriverInvariants, TransformedModuleVerifies)
{
    apps::PreparedApp p = prepared();
    DiagEngine d;
    EXPECT_TRUE(ir::verifyModule(*p.module, d)) << d.str();
}

TEST_P(DriverInvariants, OptimizerOnlyRemovesPoints)
{
    ConAirOptions with;
    ConAirOptions without;
    without.optimize = false;
    apps::PreparedApp a = prepared(with);
    apps::PreparedApp b = prepared(without);
    EXPECT_LE(a.report.staticReexecPoints,
              b.report.staticReexecPoints);
    EXPECT_EQ(b.report.sitesDroppedByOptimizer, 0u);
}

TEST_P(DriverInvariants, FixModeIsASubsetOfSurvival)
{
    apps::PreparedApp survival = prepared();
    apps::HardenOptions fix;
    fix.conair.mode = Mode::Fix;
    fix.conair.fixTags =
        apps::observedFailureTags(*apps::findApp(GetParam()));
    apps::PreparedApp fixed =
        apps::prepareApp(*apps::findApp(GetParam()), fix);
    EXPECT_LE(fixed.report.identified.total(),
              survival.report.identified.total());
    EXPECT_LE(fixed.report.staticReexecPoints,
              survival.report.staticReexecPoints);
    EXPECT_GE(fixed.report.identified.total(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, DriverInvariants,
    ::testing::Values("FFT", "HawkNL", "HTTrack", "MozillaXP",
                      "MozillaJS", "MySQL1", "MySQL2", "Transmission",
                      "SQLite", "ZSNES"),
    [](const auto &info) { return info.param; });

} // namespace
} // namespace conair::ca
