/**
 * @file
 * RegMap numbering: arguments are registers 0..n-1 and value-producing
 * instructions follow in block order.  Interp::pushFrame seeds callee
 * frames by that numbering and the decoder lowers operands through it,
 * so it is pinned here, along with lookups in a function large enough
 * to force probe chains and the fatal lookup of an unnumbered value.
 */
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "tests/vm/vm_test_util.h"
#include "vm/regmap.h"

namespace conair::vm {
namespace {

using testutil::parseIR;

const ir::Function &
functionNamed(const ir::Module &m, const std::string &name)
{
    for (const auto &fn : m.functions())
        if (fn->name() == name)
            return *fn;
    ADD_FAILURE() << "no function " << name;
    return *m.functions().front();
}

/** @p f's one instruction with opcode @p op. */
const ir::Instruction &
instWith(const ir::Function &f, ir::Opcode op)
{
    for (const auto &bb : f.blocks())
        for (const auto &inst : bb->insts())
            if (inst->opcode() == op)
                return *inst;
    ADD_FAILURE() << "no " << ir::opcodeName(op);
    return *f.entry()->insts().front();
}

const char *const kDiamond = R"(
func @f(i64 %x, i64 %y, i64 %z) -> i64 {
entry:
    %a = add %x, %y
    %c = icmp.slt %a, %z
    condbr %c, left, right
left:
    %b = mul %a, 2
    br join
right:
    %d = sub %a, 1
    br join
join:
    %p = phi i64 [%b, left], [%d, right]
    ret %p
}
func @main() -> i64 {
entry:
    %r = call @f(1, 2, 4)
    ret %r
}
)";

TEST(RegMap, ArgumentsFirstThenValuesInBlockOrder)
{
    auto m = parseIR(kDiamond);
    ASSERT_TRUE(m);
    const ir::Function &f = functionNamed(*m, "f");
    RegMap map(f);
    for (unsigned i = 0; i < f.numArgs(); ++i)
        EXPECT_EQ(map.indexOf(f.arg(i)), i);
    // %a %c | %b | %d | %p: branches and the return take no register.
    using ir::Opcode;
    const Opcode order[] = {Opcode::Add, Opcode::ICmpSlt, Opcode::Mul,
                            Opcode::Sub, Opcode::Phi};
    for (uint32_t k = 0; k < std::size(order); ++k)
        EXPECT_EQ(map.indexOf(&instWith(f, order[k])), 3 + k)
            << ir::opcodeName(order[k]);
    EXPECT_EQ(map.count(), 8u);

    RegMap empty(functionNamed(*m, "main"));
    EXPECT_EQ(empty.count(), 1u); // %r only
}

TEST(RegMap, LargeFunctionFindsEveryValue)
{
    // 8 arguments and 5000 chained adds: thousands of keys in a table
    // of 16384 slots, so many lookups walk a probe chain.
    constexpr unsigned kArgs = 8, kValues = 5000;
    std::string ir = "func @big(";
    for (unsigned i = 0; i < kArgs; ++i)
        ir += (i ? ", i64 %x" : "i64 %x") + std::to_string(i);
    ir += ") -> i64 {\nentry:\n    %v0 = add %x0, %x7\n";
    for (unsigned i = 1; i < kValues; ++i)
        ir += "    %v" + std::to_string(i) + " = add %v" +
              std::to_string(i - 1) + ", 1\n";
    ir += "    ret %v" + std::to_string(kValues - 1) +
          "\n}\nfunc @main() -> i64 {\nentry:\n"
          "    %r = call @big(1, 0, 0, 0, 0, 0, 0, 2)\n    ret %r\n}\n";
    auto m = parseIR(ir);
    ASSERT_TRUE(m);
    const ir::Function &big = functionNamed(*m, "big");
    RegMap map(big);
    ASSERT_EQ(map.count(), kArgs + kValues);
    for (unsigned i = 0; i < kArgs; ++i)
        ASSERT_EQ(map.indexOf(big.arg(i)), i);
    uint32_t next = kArgs;
    for (const auto &inst : big.entry()->insts()) {
        if (inst->producesValue()) {
            ASSERT_EQ(map.indexOf(inst.get()), next++);
        }
    }
    EXPECT_EQ(next, kArgs + kValues);

    // Both engines seed and read the callee's registers through it.
    for (ExecEngine engine : {ExecEngine::Reference, ExecEngine::Fused}) {
        VmConfig cfg;
        cfg.engine = engine;
        RunResult r = runProgram(*m, cfg);
        ASSERT_EQ(r.outcome, Outcome::Success) << r.failureMsg;
        EXPECT_EQ(r.exitCode, 3 + kValues - 1);
    }
}

TEST(RegMapDeathTest, UnnumberedValueIsFatal)
{
    auto m = parseIR(kDiamond);
    ASSERT_TRUE(m);
    RegMap map(functionNamed(*m, "f"));
    const ir::Instruction &foreign =
        instWith(functionNamed(*m, "main"), ir::Opcode::Call);
    EXPECT_DEATH(map.indexOf(&foreign),
                 "RegMap: value not numbered in this function");
}

} // namespace
} // namespace conair::vm
