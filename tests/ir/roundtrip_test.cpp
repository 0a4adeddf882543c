#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"

namespace conair::ir {
namespace {

/** Parses, reprints, reparses, and checks the fixed point. */
void
expectRoundTrip(const std::string &text)
{
    DiagEngine d1;
    auto m1 = parseModule(text, d1);
    ASSERT_TRUE(m1) << d1.str();
    std::string p1 = printModule(*m1);

    DiagEngine d2;
    auto m2 = parseModule(p1, d2);
    ASSERT_TRUE(m2) << d2.str() << "\n--- printed ---\n" << p1;
    std::string p2 = printModule(*m2);
    EXPECT_EQ(p1, p2);

    DiagEngine dv;
    EXPECT_TRUE(verifyModule(*m2, dv)) << dv.str() << p2;
}

TEST(RoundTrip, Minimal)
{
    expectRoundTrip(R"(
func @main() -> i64 {
entry:
    ret 0
}
)");
}

TEST(RoundTrip, Int64Extremes)
{
    // The printer emits INT64_MIN with %lld; the parser must read it
    // back, since ir::clone round-trips modules through text.
    expectRoundTrip(R"(
global @extremes : i64[2] = [-9223372036854775808, 9223372036854775807]

func @main() -> i64 {
entry:
    %0 = add -9223372036854775808, 9223372036854775807
    ret %0
}
)");
}

TEST(RoundTrip, GlobalsAndMutexes)
{
    expectRoundTrip(R"(
global @counter : i64[1] = [5]
global @weights : f64[3] = [1.5, -2.0, 0.25]
mutex @lk

func @main() -> i64 {
entry:
    %0 = load i64, @counter
    ret %0
}
)");
}

TEST(RoundTrip, ArithmeticAndCompare)
{
    expectRoundTrip(R"(
func @main() -> i64 {
entry:
    %0 = add 1, 2
    %1 = mul %0, %0
    %2 = icmp.slt %1, 100
    %3 = zext %2
    %4 = sitofp %3
    %5 = fadd %4, 0.5
    %6 = fptosi %5
    ret %6
}
)");
}

TEST(RoundTrip, ControlFlowWithPhi)
{
    expectRoundTrip(R"(
func @abs(i64 %x) -> i64 {
entry:
    %0 = icmp.slt %x, 0
    condbr %0, neg, done
neg:
    %1 = sub 0, %x
    br done
done:
    %2 = phi i64 [%x, entry], [%1, neg]
    ret %2
}
)");
}

TEST(RoundTrip, CallsAndBuiltins)
{
    expectRoundTrip(R"(
mutex @m

func @work(i64 %n) -> i64 {
entry:
    ret %n
}

func @main() -> i64 {
entry:
    %0 = call $thread_create(@work, 3)
    call $mutex_lock(@m)
    call $print_str("hello\n")
    call $mutex_unlock(@m)
    call $thread_join(%0)
    %1 = call @work(7)
    %2 = call $mutex_timedlock(@m, 1000)
    call $conair.checkpoint(0)
    ret %1
}
)");
}

TEST(RoundTrip, MemoryOps)
{
    expectRoundTrip(R"(
global @buf : i64[8]

func @main() -> i64 {
entry:
    %0 = alloca 4
    store 42, %0
    %1 = ptradd %0, 2
    store 7, %1
    %2 = load i64, %1
    %3 = call $malloc(16)
    store %2, %3
    call $free(%3)
    %4 = icmp.eq %3, null
    condbr %4, a, b
a:
    ret 0
b:
    %5 = load i64, @buf
    ret %5
}
)");
}

TEST(RoundTrip, TagsSurvive)
{
    DiagEngine d;
    auto m = parseModule(R"(
global @g : i64[1]

func @main() -> i64 {
entry:
    %0 = load i64, @g #"deref.main.3"
    ret %0
}
)",
                         d);
    ASSERT_TRUE(m) << d.str();
    const auto &inst = m->findFunction("main")->entry()->front();
    EXPECT_EQ(inst->tag(), "deref.main.3");
    // And the printer emits it back.
    EXPECT_NE(printModule(*m).find("#\"deref.main.3\""),
              std::string::npos);
}

TEST(RoundTrip, SchedHintAndUnreachable)
{
    expectRoundTrip(R"(
func @main() -> void {
entry:
    sched_hint 42
    condbr true, a, b
a:
    ret
b:
    call $assert_fail("main:3: assert failed")
    unreachable
}
)");
}

TEST(Parser, ReportsUnknownValue)
{
    DiagEngine d;
    auto m = parseModule(R"(
func @main() -> i64 {
entry:
    ret %nope
}
)",
                         d);
    EXPECT_EQ(m, nullptr);
    EXPECT_TRUE(d.hasErrors());
}

TEST(Parser, ReportsUnknownBuiltin)
{
    DiagEngine d;
    auto m = parseModule(R"(
func @main() -> void {
entry:
    call $bogus()
    ret
}
)",
                         d);
    EXPECT_EQ(m, nullptr);
    EXPECT_TRUE(d.hasErrors());
}

TEST(Parser, ForwardPhiReferenceResolves)
{
    DiagEngine d;
    auto m = parseModule(R"(
func @loop(i64 %n) -> i64 {
entry:
    br head
head:
    %0 = phi i64 [0, entry], [%1, head]
    %1 = add %0, 1
    %2 = icmp.slt %1, %n
    condbr %2, head, done
done:
    ret %1
}
)",
                         d);
    ASSERT_TRUE(m) << d.str();
    DiagEngine dv;
    EXPECT_TRUE(verifyModule(*m, dv)) << dv.str();
}

TEST(Printer, BuilderOutputParses)
{
    Module m("built");
    Global *g = m.addGlobal("state", Type::I64, 2);
    Function *f = m.addFunction("main", Type::I64);
    BasicBlock *entry = f->addBlock("entry");
    IRBuilder b(&m);
    b.setInsertAtEnd(entry);
    Instruction *addr = b.ptrAdd(m.getGlobalAddr(g), m.getInt(1));
    Instruction *v = b.load(Type::I64, addr);
    b.callBuiltin(Builtin::PrintI64, {v});
    b.ret(v);

    std::string text = printModule(m);
    DiagEngine d;
    auto parsed = parseModule(text, d);
    ASSERT_TRUE(parsed) << d.str() << text;
    EXPECT_EQ(printModule(*parsed), text);
}

} // namespace
} // namespace conair::ir
