/**
 * @file
 * Differential testing of the two execution engines.
 *
 * The production engine (ExecEngine::Fused: pre-decoded arrays, the
 * memory-handle cache, and the superinstruction burst) must be
 * *tick-for-tick* identical to the reference tree-walking engine: same
 * outcome, output, failure diagnostics, virtual clock, step counts,
 * final-memory digest, and recovery events for every program and
 * seed.  These tests run the bundled example programs and the whole
 * Table 2 application registry (hardened and unhardened, clean and
 * failure-forcing schedules, plus the whole-program-checkpoint and
 * chaos modes) under both engines with and without the scheduler
 * burst, and require equality.
 */
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/harness.h"
#include "tests/support/engine_variants.h"
#include "tests/vm/vm_test_util.h"

#ifndef CONAIR_EXAMPLES_DIR
#define CONAIR_EXAMPLES_DIR "examples/data"
#endif

namespace conair::vm {
namespace {

using conair::testutil::expectSameRun;
using testutil::compileC;

/** The shared engine matrix (fused production default first) plus
 *  the reference engine without its scheduler burst, so both
 *  reference paths stay covered. */
std::vector<std::pair<const char *, VmConfig>>
engineVariants(const VmConfig &base)
{
    std::vector<std::pair<const char *, VmConfig>> out;
    for (const conair::testutil::EngineVariant &v :
         conair::testutil::kEngineVariants) {
        out.emplace_back(v.name, base);
        v.applyTo(out.back().second);
    }
    out.emplace_back("reference/no-burst", base);
    out.back().second.engine = ExecEngine::Reference;
    out.back().second.schedFastPath = false;
    return out;
}

/** Runs every variant and compares it against the production one,
 *  which it returns. */
RunResult
diffAllVariants(const ir::Module &m, const VmConfig &base,
                const std::string &ctx)
{
    auto variants = engineVariants(base);
    RunResult first = runProgram(m, variants[0].second);
    for (size_t i = 1; i < variants.size(); ++i) {
        RunResult r = runProgram(m, variants[i].second);
        expectSameRun(first, r,
                      ctx + " [" + variants[i].first + " vs fused]");
    }
    return first;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(DecodeDiff, ExampleProgramsAgreeAcrossSeedsAndPolicies)
{
    const char *files[] = {"racy_counter.mc", "two_lock_server.mc"};
    for (const char *name : files) {
        std::string src =
            readFile(std::string(CONAIR_EXAMPLES_DIR) + "/" + name);
        auto m = compileC(src);
        ASSERT_TRUE(m);
        for (uint64_t seed : {1, 2, 3, 17}) {
            VmConfig cfg;
            cfg.seed = seed;
            diffAllVariants(*m, cfg,
                            std::string(name) + " random seed " +
                                std::to_string(seed));
        }
        VmConfig rr;
        rr.policy = SchedPolicy::RoundRobin;
        diffAllVariants(*m, rr, std::string(name) + " round-robin");

        // Forced interleaving: the examples document hint id 1.
        VmConfig forced;
        forced.delays = {{1, 5000}};
        diffAllVariants(*m, forced, std::string(name) + " forced");
    }
}

TEST(DecodeDiff, AppRegistryAgreesHardenedAndUnhardened)
{
    for (const apps::AppSpec &app : apps::allApps()) {
        apps::HardenOptions harden;
        apps::PreparedApp hardened = apps::prepareApp(app, harden);
        apps::HardenOptions plain_opts;
        plain_opts.applyConAir = false;
        apps::PreparedApp plain = apps::prepareApp(app, plain_opts);

        for (uint64_t seed : {1, 2}) {
            VmConfig buggy = app.buggyConfig;
            buggy.seed = seed;
            diffAllVariants(*hardened.module, buggy,
                            app.name + " hardened buggy seed " +
                                std::to_string(seed));
        }
        VmConfig clean = app.cleanConfig;
        clean.seed = 1;
        diffAllVariants(*hardened.module, clean,
                        app.name + " hardened clean");

        VmConfig buggy = app.buggyConfig;
        buggy.seed = 1;
        diffAllVariants(*plain.module, buggy, app.name + " unhardened");
    }
}

TEST(DecodeDiff, WholeProgramCheckpointModeAgrees)
{
    // The wp baseline exercises snapshot/restore, which rewinds the
    // block-id counters — the one case that must flush every
    // memory-handle cache.  Run a failing app under it on both engines.
    const apps::AppSpec *app = apps::findApp("MySQL1");
    ASSERT_NE(app, nullptr);
    apps::HardenOptions plain_opts;
    plain_opts.applyConAir = false;
    apps::PreparedApp plain = apps::prepareApp(*app, plain_opts);

    VmConfig cfg = app->buggyConfig;
    cfg.seed = 1;
    cfg.wpCheckpointInterval = 2000;
    cfg.wpMaxRecoveries = 4;
    diffAllVariants(*plain.module, cfg, "MySQL1 wp-checkpoint");
}

TEST(DecodeDiff, ChaosRollbackModeAgrees)
{
    // Chaos injection draws from its own RNG on every eligible step;
    // eligibility depends on the idempotent-window bookkeeping both
    // engines must maintain identically (DecodedInst::dirties vs the
    // interpreter-local predicate).  The production variant must also
    // burst while chaos cannot strike (a dirty window), and bursting
    // must leave every injection site where stepwise runs put it.
    for (const apps::AppSpec &app : apps::allApps()) {
        apps::HardenOptions harden;
        apps::PreparedApp hardened = apps::prepareApp(app, harden);
        for (uint64_t everyN : {16, 128}) {
            VmConfig cfg = app.cleanConfig;
            cfg.seed = 3;
            cfg.chaosRollbackEveryN = everyN;
            std::string ctx =
                app.name + " chaos every " + std::to_string(everyN);
            RunResult fused = diffAllVariants(*hardened.module, cfg, ctx);
            EXPECT_GT(fused.stats.fastPathSteps, 0u) << ctx;
            EXPECT_GT(fused.stats.chaosRollbacks, 0u) << ctx;
        }
    }
}

TEST(DecodeDiff, RecursionAndDeepCallsAgree)
{
    // Pre-decoded call records link callee bodies up front, including
    // recursion; make sure frames, alloca lifetimes, and the stack
    // cache invalidation on frame pops line up with the reference.
    auto m = compileC(R"(
int depth(int n) {
    int local[8];
    local[0] = n;
    if (n <= 0) { return local[0]; }
    int r = depth(n - 1);
    return r + local[0];
}
int worker(int x) {
    int acc = 0;
    int i = 0;
    while (i < 20) {
        acc = acc + depth(12);
        i = i + 1;
    }
    return acc;
}
int main() {
    int t = spawn(worker, 0);
    int mine = depth(30);
    join(t);
    print(mine);
    return 0;
}
)");
    ASSERT_TRUE(m);
    for (uint64_t seed : {1, 9}) {
        VmConfig cfg;
        cfg.seed = seed;
        diffAllVariants(*m, cfg, "recursion seed " + std::to_string(seed));
    }
}

} // namespace
} // namespace conair::vm
