/**
 * @file
 * Cross-engine differential fuzzer.
 *
 * Every seed generates a MiniC program (multi-threaded, shared
 * globals/heap, a variety of locks; some seeds adversarial so failure
 * paths get fuzzed too), compiles it plain and ConAir-hardened, and
 * runs both builds under a seed-derived schedule on both execution
 * engines.  Fused (with and without the scheduler burst) and
 * Reference must agree on the complete observable run: outcome,
 * output, exit code, failure diagnostics, virtual clock, step and
 * scheduling-tick counts, chaos injection sites, and the final-memory
 * digest.  Any divergence prints the generator seed
 * and the source so the case can be replayed directly.
 *
 * Seed count defaults to a quick-ctest batch; CI sets
 * CONAIR_FUZZ_SEEDS=500 for the sanitizer smoke sweep (see
 * .github/workflows/ci.yml and docs/TESTING.md).
 */
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "conair/driver.h"
#include "frontend/compile.h"
#include "tests/property/program_gen.h"
#include "tests/support/engine_variants.h"
#include "vm/interp.h"

namespace conair::proptest {
namespace {

uint64_t
seedCount()
{
    if (const char *env = std::getenv("CONAIR_FUZZ_SEEDS")) {
        long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return uint64_t(n);
    }
    return 40; // quick default; CI smoke raises this to >= 500
}

/** Per-seed program shape: sweep the generator knobs so the corpus
 *  covers threads on/off, shared heap, lock variety, pointers, and
 *  (every fifth seed) genuinely racing adversarial programs. */
GenOptions
optionsFor(uint64_t seed)
{
    GenOptions o;
    o.maxFunctions = 1 + unsigned(seed % 3);
    o.maxStmtsPerBlock = 3 + unsigned(seed % 5);
    o.maxDepth = 2 + unsigned(seed % 2);
    o.numGlobals = 2 + unsigned(seed % 4);
    o.arraySize = 4 + unsigned(seed % 8);
    o.withThreads = seed % 4 != 1;
    o.withPointers = seed % 3 != 2;
    o.sharedHeap = o.withThreads && seed % 2 == 0;
    o.numMutexes = 1 + unsigned(seed % 3);
    o.adversarial = seed % 5 == 0;
    return o;
}

/** Per-seed schedule: cycle the policy axis and vary quantum/seed so
 *  the same program body is explored under different interleavings. */
vm::VmConfig
configFor(uint64_t seed)
{
    vm::VmConfig cfg;
    cfg.seed = seed * 977 + 11;
    cfg.quantum = 8 + seed % 57;
    cfg.maxSteps = 2'000'000;
    switch (seed % 4) {
      case 0: cfg.policy = vm::SchedPolicy::Random; break;
      case 1: cfg.policy = vm::SchedPolicy::RoundRobin; break;
      case 2:
        cfg.policy = vm::SchedPolicy::Pct;
        cfg.pctDepth = 2 + seed % 3;
        cfg.pctHorizon = 500 + seed % 1500;
        break;
      default:
        cfg.policy = vm::SchedPolicy::PreemptBound;
        cfg.preemptBound = 1 + seed % 3;
        break;
    }
    return cfg;
}

/** Runs @p m on every engine variant (tests/support/engine_variants.h)
 *  and requires identical runs. */
void
diffEngines(const ir::Module &m, vm::VmConfig cfg,
            const std::string &ctx)
{
    const auto &variants = testutil::kEngineVariants;
    variants[0].applyTo(cfg);
    vm::RunResult first = vm::runProgram(m, cfg);
    for (size_t i = 1; i < std::size(variants); ++i) {
        variants[i].applyTo(cfg);
        testutil::expectSameRun(first, vm::runProgram(m, cfg),
                                ctx + " [" + variants[i].name + " vs " +
                                    variants[0].name + "]");
    }
}

TEST(EngineFuzz, AllEnginesAgreeOnRandomPrograms)
{
    uint64_t seeds = seedCount();
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
        GenOptions gopts = optionsFor(seed);
        std::string src = generateProgram(seed, gopts);
        std::string ctx = strfmt("fuzz seed %llu\n--- source ---\n%s",
                                 (unsigned long long)seed, src.c_str());

        DiagEngine d;
        auto plain = fe::compileMiniC(src, d);
        ASSERT_TRUE(plain) << d.str() << "\n" << ctx;
        DiagEngine d2;
        auto hardened = fe::compileMiniC(src, d2);
        ASSERT_TRUE(hardened) << d2.str();
        ca::ConAirReport rep = ca::applyConAir(*hardened);
        EXPECT_GT(rep.identified.total(), 0u) << ctx;

        vm::VmConfig cfg = configFor(seed);
        diffEngines(*plain, cfg, "plain " + ctx);
        diffEngines(*hardened, cfg, "hardened " + ctx);

        // Every third seed also fuzzes the rollback machinery: chaos
        // injection forces checkpoint/restore traffic through every
        // engine variant on the hardened build.
        if (seed % 3 == 0) {
            vm::VmConfig chaos = cfg;
            chaos.chaosRollbackEveryN = 64;
            diffEngines(*hardened, chaos, "chaos " + ctx);
        }
    }
}

} // namespace
} // namespace conair::proptest
