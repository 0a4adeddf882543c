/**
 * @file
 * Phi parallel-copy edge cases on both execution engines.
 *
 * SSA phi nodes at a block head are one atomic parallel copy: every
 * incoming value is read before any destination is written.  The
 * classic ways to get this wrong — swap cycles, the lost-copy
 * problem, self-referential phis — are pinned here as regression
 * tests, and each program runs on Reference and on Fused with and
 * without the scheduler burst, so every phi-copy implementation (the
 * tree walk, jumpToDecoded's scratch copy, and the fused burst's
 * pre-resolved inline edges) faces the same cases.  Blocks with more phis than the fused
 * engine's inline-edge capacity (kMaxInlinePhi) are included so the
 * delegated slow path is covered too.
 */
#include <string>

#include <gtest/gtest.h>

#include "tests/support/engine_variants.h"
#include "tests/vm/vm_test_util.h"

namespace conair::vm {
namespace {

using testutil::parseIR;

/** Runs @p irText on every engine (plus the fused engine without the
 *  scheduler burst, which steps every branch through jumpToDecoded)
 *  and checks the exit code and tick identity. */
void
expectExitOnAllEngines(const std::string &irText, int64_t expected,
                       const std::string &ctx)
{
    auto m = parseIR(irText);
    ASSERT_TRUE(m) << ctx;

    const auto &variants = conair::testutil::kEngineVariants;
    RunResult first;
    for (size_t i = 0; i < std::size(variants); ++i) {
        VmConfig cfg;
        variants[i].applyTo(cfg);
        RunResult r = runProgram(*m, cfg);
        ASSERT_EQ(r.outcome, Outcome::Success)
            << ctx << " [" << variants[i].name << "] " << r.failureMsg;
        EXPECT_EQ(r.exitCode, expected)
            << ctx << " [" << variants[i].name << "]";
        if (i == 0) {
            first = r;
            continue;
        }
        EXPECT_EQ(r.clock, first.clock)
            << ctx << " [" << variants[i].name << "]";
        EXPECT_EQ(r.stats.steps, first.stats.steps)
            << ctx << " [" << variants[i].name << "]";
        EXPECT_EQ(r.memDigest, first.memDigest)
            << ctx << " [" << variants[i].name << "]";
    }
}

TEST(PhiEdge, SwapCycle)
{
    // (a, b) swap every iteration; sequential copy order would give
    // b = a(new) and collapse the pair.
    expectExitOnAllEngines(R"(
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
)",
                           12, "swap");
}

TEST(PhiEdge, ThreeWayRotation)
{
    // a <- b <- c <- a: a cycle longer than a single swap; any
    // partially-sequential copy breaks the rotation.
    expectExitOnAllEngines(R"(
func @main() -> i64 {
entry:
    br loop
loop:
    %a = phi i64 [1, entry], [%b, loop]
    %b = phi i64 [2, entry], [%c, loop]
    %c = phi i64 [3, entry], [%a, loop]
    %i = phi i64 [0, entry], [%n, loop]
    %n = add %i, 1
    %t = icmp.slt %n, 5
    condbr %t, loop, done
done:
    %r1 = mul %a, 100
    %r2 = mul %b, 10
    %r3 = add %r1, %r2
    %r4 = add %r3, %c
    ret %r4
}
)",
                           // 4 iterations rotate (1,2,3) -> (2,3,1)
                           // -> (3,1,2) -> (1,2,3) -> (2,3,1).
                           231, "rotation");
}

TEST(PhiEdge, LostCopy)
{
    // The lost-copy problem: %i is live out of the loop while the
    // back edge redefines it; the exit must see the value from the
    // *final* iteration, not the next one (%n).
    expectExitOnAllEngines(R"(
func @main() -> i64 {
entry:
    br loop
loop:
    %i = phi i64 [0, entry], [%n, loop]
    %n = add %i, 1
    %c = icmp.slt %n, 5
    condbr %c, loop, done
done:
    ret %i
}
)",
                           4, "lost-copy");
}

TEST(PhiEdge, SelfReferentialPhi)
{
    // %x feeds itself along the back edge: the copy x <- x must be a
    // no-op every iteration, not read a clobbered temporary.
    expectExitOnAllEngines(R"(
func @main() -> i64 {
entry:
    br loop
loop:
    %x = phi i64 [7, entry], [%x, loop]
    %i = phi i64 [0, entry], [%n, loop]
    %n = add %i, %x
    %c = icmp.slt %n, 50
    condbr %c, loop, done
done:
    %r = add %x, %n
    ret %r
}
)",
                           // n: 7, 14, ..., 56 stops; 7 + 56 = 63.
                           63, "self-phi");
}

TEST(PhiEdge, PhiEdgesOnBothCondbrTargets)
{
    // A diamond whose condbr feeds phi copies on *both* targets, then
    // a merge phi, then a back edge — every branch record shape the
    // fused engine pre-resolves (taken edge, fallthrough edge, merge)
    // carries copies here.
    expectExitOnAllEngines(R"(
func @main() -> i64 {
entry:
    br head
head:
    %i = phi i64 [0, entry], [%i2, join]
    %acc = phi i64 [0, entry], [%acc2, join]
    %c = icmp.slt %i, 6
    condbr %c, body, done
body:
    %par = and %i, 1
    %z = icmp.eq %par, 0
    condbr %z, even, odd
even:
    %x = phi i64 [%acc, body]
    %x2 = add %x, 10
    br join
odd:
    %y = phi i64 [%acc, body]
    %y2 = add %y, 1
    br join
join:
    %m = phi i64 [%x2, even], [%y2, odd]
    %acc2 = add %m, 0
    %i2 = add %i, 1
    br head
done:
    ret %acc
}
)",
                           // i = 0,2,4 add 10; i = 1,3,5 add 1.
                           33, "diamond");
}

TEST(PhiEdge, MoreThanInlineCapacityPhis)
{
    // Ten phis in one block — beyond the fused engine's inline-edge
    // capacity (kMaxInlinePhi = 8) — rotating as one long cycle, so
    // the delegated phi-copy slow path handles a full parallel copy.
    expectExitOnAllEngines(R"(
func @main() -> i64 {
entry:
    br loop
loop:
    %p0 = phi i64 [0, entry], [%p1, loop]
    %p1 = phi i64 [1, entry], [%p2, loop]
    %p2 = phi i64 [2, entry], [%p3, loop]
    %p3 = phi i64 [3, entry], [%p4, loop]
    %p4 = phi i64 [4, entry], [%p5, loop]
    %p5 = phi i64 [5, entry], [%p6, loop]
    %p6 = phi i64 [6, entry], [%p7, loop]
    %p7 = phi i64 [7, entry], [%p8, loop]
    %p8 = phi i64 [8, entry], [%p9, loop]
    %p9 = phi i64 [9, entry], [%p0, loop]
    %i = phi i64 [0, entry], [%n, loop]
    %n = add %i, 1
    %c = icmp.slt %n, 4
    condbr %c, loop, done
done:
    %d1 = mul %p0, 100
    %d2 = mul %p1, 10
    %d3 = add %d1, %d2
    %d4 = add %d3, %p9
    ret %d4
}
)",
                           // 3 rotations: p0 = 3, p1 = 4, p9 = 2.
                           342, "wide-phi");
}

} // namespace
} // namespace conair::vm
