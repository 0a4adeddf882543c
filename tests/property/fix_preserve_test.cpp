/**
 * @file
 * Property: the fix transform never changes failure-free behaviour.
 *
 * Adversarial generator programs carry a genuine lost update — racer
 * workers do an unlocked read-modify-write of `racy_total` that main
 * asserts at exit (see program_gen.h).  A synthetic lost-update
 * diagnosis for that counter drives synthesizeFix, and per seed we
 * check the patch is behaviour-preserving where it must be:
 *
 *  1. the patched module verifies and the lock-guard wraps only the
 *     racing updater (a fresh mutex — nothing else touches the
 *     counter under a lock);
 *  2. on every schedule where both builds run failure-free, output
 *     and exit code are identical — and the patched build never
 *     fails the lost-update oracle itself.  (Adversarial programs
 *     also carry an untouched closer/observer flag race; the
 *     inserted lock legitimately perturbs interleavings, so that
 *     *other* race may fire on different schedules than before, but
 *     any patched failure must be the observer's, never main's
 *     racy_total assert.)
 *  3. the patched build is engine-independent: Fused, Fused without
 *     the scheduler burst, and Reference agree on output, exit code,
 *     and the full memory digest for every probed schedule.
 */
#include <gtest/gtest.h>

#include "fix/fix.h"
#include "frontend/compile.h"
#include "ir/verifier.h"
#include "obs/postmortem/diagnosis.h"
#include "support/str.h"
#include "tests/property/program_gen.h"
#include "vm/interp.h"

namespace conair::proptest {
namespace {

class FixPreserve : public ::testing::TestWithParam<uint64_t>
{
  protected:
    static std::unique_ptr<ir::Module>
    compileAdversarial(uint64_t seed, std::string &src)
    {
        GenOptions gopts;
        gopts.adversarial = true;
        src = generateProgram(seed, gopts);
        DiagEngine d;
        auto m = fe::compileMiniC(src, d);
        EXPECT_TRUE(m) << d.str() << "\n--- source ---\n" << src;
        return m;
    }

    /** The synthetic diagnosis every adversarial program admits: the
     *  racer workers lose updates to `racy_total`. */
    static obs::pm::RecoveryReport
    lostUpdateReport(uint64_t seed)
    {
        obs::pm::RecoveryReport rep;
        rep.program = strfmt("adv%llu", (unsigned long long)seed);
        obs::pm::EpisodeReport ep;
        ep.verdict = obs::pm::Verdict::LostUpdate;
        ep.variable = "racy_total";
        ep.siteTag = "assert.racer.1";
        rep.episodes.push_back(ep);
        return rep;
    }
};

TEST_P(FixPreserve, PatchNeverChangesFailureFreeBehaviour)
{
    const uint64_t seed = GetParam();
    std::string src;
    auto original = compileAdversarial(seed, src);
    ASSERT_TRUE(original);

    fix::FixPlan plan =
        fix::synthesizeFix(*original, lostUpdateReport(seed));
    ASSERT_TRUE(plan.ok) << plan.error << "\n" << src;
    ASSERT_NE(plan.patched, nullptr);
    EXPECT_EQ(plan.strategy, fix::Strategy::LockGuard);
    EXPECT_FALSE(plan.usedExistingMutex)
        << "nothing else locks racy_total; the guard must be fresh";
    DiagEngine d;
    ASSERT_TRUE(ir::verifyModule(*plan.patched, d)) << d.str();

    unsigned preserved = 0;
    for (uint64_t s = 1; s <= 12; ++s) {
        vm::VmConfig cfg;
        cfg.seed = seed * 977 + s;
        cfg.quantum = 10 + s * 7;
        vm::RunResult orig = vm::runProgram(*original, cfg);
        vm::RunResult pat = vm::runProgram(*plan.patched, cfg);

        // Property 2: mutually failure-free schedules keep their
        // behaviour, and a patched failure is only ever the untouched
        // observer race — the lost-update oracle (main's racy_total
        // assert) must be gone for good.
        if (orig.outcome == vm::Outcome::Success &&
            pat.outcome == vm::Outcome::Success) {
            EXPECT_EQ(pat.output, orig.output)
                << "schedule seed " << cfg.seed << "\n" << src;
            EXPECT_EQ(pat.exitCode, orig.exitCode);
            ++preserved;
        }
        if (pat.outcome != vm::Outcome::Success) {
            EXPECT_NE(pat.failureMsg.find("observer"),
                      std::string::npos)
                << "patched build failed outside the untouched flag "
                   "race, seed "
                << cfg.seed << ": " << pat.failureMsg << "\n" << src;
        }

        // Property 3: the patched build is engine-independent.
        vm::VmConfig rcfg = cfg;
        rcfg.engine = vm::ExecEngine::Reference;
        vm::RunResult ref = vm::runProgram(*plan.patched, rcfg);
        vm::VmConfig scfg = cfg;
        scfg.schedFastPath = false;
        vm::RunResult stepwise = vm::runProgram(*plan.patched, scfg);
        EXPECT_EQ(ref.outcome, pat.outcome) << "seed " << cfg.seed;
        EXPECT_EQ(ref.output, pat.output) << "seed " << cfg.seed;
        EXPECT_EQ(ref.exitCode, pat.exitCode);
        EXPECT_EQ(ref.memDigest, pat.memDigest)
            << "reference engine digest diverged, seed " << cfg.seed;
        EXPECT_EQ(stepwise.outcome, pat.outcome) << "seed " << cfg.seed;
        EXPECT_EQ(stepwise.output, pat.output) << "seed " << cfg.seed;
        EXPECT_EQ(stepwise.exitCode, pat.exitCode);
        EXPECT_EQ(stepwise.memDigest, pat.memDigest)
            << "no-burst fused digest diverged, seed " << cfg.seed;
    }
    // Non-vacuity: property 2 must have been exercised.
    EXPECT_GT(preserved, 0u)
        << "no failure-free schedule found for seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixPreserve,
                         ::testing::Range<uint64_t>(1, 9));

} // namespace
} // namespace conair::proptest
