/**
 * @file
 * Scheduler and control-transfer semantics: policy determinism, delay
 * rules, and the phi parallel-copy rule.
 */
#include "tests/support/engine_variants.h"
#include "tests/vm/vm_test_util.h"

namespace conair::vm {
namespace {

using testutil::compileC;
using testutil::parseIR;
using testutil::runC;

TEST(InterpSched, PhiParallelCopySwap)
{
    // The classic swap: both phis must read the *pre-jump* values.
    // A naive sequential phi evaluation would compute b = a(new).
    RunResult r = [&] {
        auto m = parseIR(R"(
func @main() -> i64 {
entry:
    br loop
loop:
    %a = phi i64 [1, entry], [%b, loop]
    %b = phi i64 [2, entry], [%a, loop]
    %i = phi i64 [0, entry], [%n, loop]
    %n = add %i, 1
    %c = icmp.slt %n, 5
    condbr %c, loop, done
done:
    %r = mul %a, 10
    %s = add %r, %b
    ret %s
}
)");
        return runProgram(*m);
    }();
    ASSERT_EQ(r.outcome, Outcome::Success);
    // After 5 iterations the pair has swapped 4 times: (a,b) = (1,2)
    // -> (2,1) -> (1,2) -> (2,1) -> (1,2).
    EXPECT_EQ(r.exitCode, 12);
}

TEST(InterpSched, RoundRobinIsSeedIndependent)
{
    const char *src = R"(
int order[4];
int next_slot;
int worker(int id) {
    order[next_slot] = id;     // racy by design; RR makes it stable
    next_slot = next_slot + 1;
    return 0;
}
int main() {
    int a = spawn(worker, 1);
    int b = spawn(worker, 2);
    join(a); join(b);
    return order[0] * 10 + order[1];
}
)";
    VmConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    cfg.quantum = 1000;
    int64_t first = runC(src, cfg).exitCode;
    for (uint64_t seed = 2; seed <= 5; ++seed) {
        cfg.seed = seed;
        EXPECT_EQ(runC(src, cfg).exitCode, first) << seed;
    }
}

TEST(InterpSched, RandomPolicyVariesWithSeed)
{
    const char *src = R"(
int winner;
int worker(int id) {
    if (winner == 0) { winner = id; }
    return 0;
}
int main() {
    int a = spawn(worker, 1);
    int b = spawn(worker, 2);
    join(a); join(b);
    return winner;
}
)";
    // Across many seeds both orderings must appear.
    bool one = false, two = false;
    for (uint64_t seed = 1; seed <= 40 && !(one && two); ++seed) {
        VmConfig cfg;
        cfg.seed = seed;
        cfg.quantum = 3;
        int64_t w = runC(src, cfg).exitCode;
        one |= w == 1;
        two |= w == 2;
    }
    EXPECT_TRUE(one);
    EXPECT_TRUE(two);
}

TEST(InterpSched, DelayRuleMaxFiresLimitsEffect)
{
    const char *src = R"(
int main() {
    int t0 = time();
    hint(1);
    int t1 = time();
    hint(1);
    int t2 = time();
    int first = t1 - t0;
    int second = t2 - t1;
    return (first >= 1000) * 10 + (second >= 1000);
}
)";
    // Unlimited: both hint executions stall.
    VmConfig unlimited;
    unlimited.delays = {{1, 1'000, 0}};
    EXPECT_EQ(runC(src, unlimited).exitCode, 11);
    // maxFires = 1: only the first stalls.
    VmConfig once;
    once.delays = {{1, 1'000, 1}};
    EXPECT_EQ(runC(src, once).exitCode, 10);
}

TEST(InterpSched, DelayPastTheClockRangeNeverEnds)
{
    // A delay deadline saturates like a lock timeout: a delay too long
    // for the clock stalls the thread for good instead of wrapping
    // round to a deadline that has already passed.
    auto m = compileC(R"(
int flag;
int worker(int x) {
    hint(1);
    flag = 1;
    return 0;
}
int main() {
    spawn(worker, 0);
    for (int i = 0; i < 100; i++) { yield(); }
    print(flag);
    return 0;
}
)");
    ASSERT_TRUE(m);
    for (uint64_t ticks : {uint64_t(1'000'000), UINT64_MAX}) {
        VmConfig cfg;
        cfg.delays = {{1, ticks, 0}};
        RunResult r = conair::testutil::runEveryVariant(*m, cfg);
        EXPECT_EQ(r.outcome, Outcome::Success) << ticks;
        EXPECT_EQ(r.output, "0") << ticks;
    }
}

TEST(InterpSched, HintsWithoutRulesAreFree)
{
    const char *src = R"(
int main() {
    int t0 = time();
    hint(42);
    hint(43);
    int t1 = time();
    return t1 - t0 < 10;
}
)";
    EXPECT_EQ(runC(src, {}).exitCode, 1);
}

TEST(InterpSched, VirtualClockAdvancesThroughSleepGaps)
{
    // With every thread asleep, the clock jumps rather than spins.
    const char *src = R"(
int main() {
    sleep(100000);
    return time() > 100000;
}
)";
    RunResult r = runC(src, {});
    EXPECT_EQ(r.exitCode, 1);
    // The jump must not burn instruction budget.
    EXPECT_LT(r.stats.steps, 1000u);
}

TEST(InterpSched, YieldRotatesFairly)
{
    const char *src = R"(
int turns[2];
int spinner(int id) {
    for (int i = 0; i < 50; i++) {
        turns[id] = turns[id] + 1;
        yield();
    }
    return 0;
}
int main() {
    int a = spawn(spinner, 0);
    int b = spawn(spinner, 1);
    join(a); join(b);
    return turns[0] == 50 && turns[1] == 50;
}
)";
    EXPECT_EQ(runC(src, {}).exitCode, 1);
}

} // namespace
} // namespace conair::vm
