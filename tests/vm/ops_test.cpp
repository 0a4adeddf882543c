/**
 * @file
 * What every pure opcode computes, pinned by literal values.  Both
 * engines evaluate pure opcodes through one kernel (src/vm/ops.h), so
 * the cross-engine differential cannot see an edit to what an opcode
 * means; this table can.  Each row runs with its operands in
 * registers, with an immediate operand and (binary opcodes) with an
 * immediate first operand, on every engine variant: the fused burst's
 * Alu, Cmp and PtrAdd records, the per-instruction handlers and the
 * Reference engine.
 */
#include <string>

#include "tests/support/engine_variants.h"
#include "tests/vm/vm_test_util.h"

namespace conair::vm {
namespace {

using conair::testutil::runEveryVariant;
using testutil::parseIR;

#define I64_MIN "-9223372036854775808"
#define I64_MAX "9223372036854775807"

/** `op a, b` (`op a` when b is null) over @c ty operands prints want. */
struct Case
{
    const char *op;
    const char *ty;
    const char *a;
    const char *b;
    const char *want;
};

const Case kCases[] = {
    // Integer arithmetic wraps (two's complement).
    {"add", "i64", "1", "2", "3"},
    {"add", "i64", I64_MAX, "1", I64_MIN},
    {"add", "i64", I64_MIN, "-1", I64_MAX},
    {"add", "i64", "-5", "3", "-2"},
    {"sub", "i64", "5", "7", "-2"},
    {"sub", "i64", I64_MIN, "1", I64_MAX},
    {"sub", "i64", I64_MAX, "-1", I64_MIN},
    {"sub", "i64", "0", I64_MIN, I64_MIN},
    {"mul", "i64", "6", "-7", "-42"},
    {"mul", "i64", I64_MAX, "2", "-2"},
    {"mul", "i64", I64_MIN, "-1", I64_MIN},
    {"mul", "i64", "4294967296", "4294967296", "0"},
    {"sdiv", "i64", "7", "2", "3"},
    {"sdiv", "i64", "-7", "2", "-3"},
    {"sdiv", "i64", "7", "-1", "-7"},
    {"sdiv", "i64", I64_MIN, "-1", I64_MIN},
    {"sdiv", "i64", I64_MIN, "1", I64_MIN},
    {"sdiv", "i64", I64_MIN, "2", "-4611686018427387904"},
    {"srem", "i64", "7", "2", "1"},
    {"srem", "i64", "-7", "2", "-1"},
    {"srem", "i64", "7", "-2", "1"},
    {"srem", "i64", "7", "-1", "0"},
    {"srem", "i64", I64_MIN, "-1", "0"},
    {"srem", "i64", I64_MIN, "3", "-2"},
    {"and", "i64", "12", "10", "8"},
    {"and", "i64", "-1", I64_MIN, I64_MIN},
    {"or", "i64", "12", "10", "14"},
    {"or", "i64", I64_MIN, I64_MAX, "-1"},
    {"xor", "i64", "12", "10", "6"},
    {"xor", "i64", "-1", I64_MAX, I64_MIN},
    // Shift counts are taken modulo 64; Shr is arithmetic.
    {"shl", "i64", "3", "1", "6"},
    {"shl", "i64", "1", "63", I64_MIN},
    {"shl", "i64", "1", "64", "1"},
    {"shl", "i64", "1", "-1", I64_MIN},
    {"shl", "i64", I64_MAX, "1", "-2"},
    {"shr", "i64", "8", "2", "2"},
    {"shr", "i64", "-8", "1", "-4"},
    {"shr", "i64", I64_MIN, "63", "-1"},
    {"shr", "i64", "16", "64", "16"},
    {"shr", "i64", I64_MIN, "-1", "-1"},
    {"shr", "i64", I64_MAX, "62", "1"},

    // IEEE double arithmetic (printed with %g).
    {"fadd", "f64", "0.5", "0.25", "0.75"},
    {"fadd", "f64", "1e308", "1e308", "inf"},
    {"fsub", "f64", "1.0", "3.0", "-2"},
    {"fsub", "f64", "-1e308", "1e308", "-inf"},
    {"fmul", "f64", "1.5", "-4.0", "-6"},
    {"fmul", "f64", "-1.0", "0.0", "-0"},
    {"fdiv", "f64", "7.0", "2.0", "3.5"},
    {"fdiv", "f64", "1.0", "0.0", "inf"},
    {"fdiv", "f64", "-1.0", "0.0", "-inf"},
    {"fdiv", "f64", "1.0", "inf", "0"},

    // Integer compares; Eq/Ne also take i1 and pointer operands.
    {"icmp.eq", "i64", "3", "3", "1"},
    {"icmp.eq", "i64", "3", "4", "0"},
    {"icmp.eq", "i64", I64_MIN, I64_MAX, "0"},
    {"icmp.ne", "i64", "3", "3", "0"},
    {"icmp.ne", "i64", I64_MIN, I64_MAX, "1"},
    {"icmp.slt", "i64", I64_MIN, I64_MAX, "1"},
    {"icmp.slt", "i64", I64_MAX, I64_MIN, "0"},
    {"icmp.slt", "i64", "-1", "0", "1"},
    {"icmp.slt", "i64", "5", "5", "0"},
    {"icmp.sle", "i64", "5", "5", "1"},
    {"icmp.sle", "i64", "6", "5", "0"},
    {"icmp.sle", "i64", I64_MIN, I64_MIN, "1"},
    {"icmp.sgt", "i64", I64_MAX, I64_MIN, "1"},
    {"icmp.sgt", "i64", "-1", "0", "0"},
    {"icmp.sgt", "i64", "5", "5", "0"},
    {"icmp.sge", "i64", "5", "5", "1"},
    {"icmp.sge", "i64", I64_MIN, I64_MAX, "0"},
    {"icmp.sge", "i64", "0", "-1", "1"},
    {"icmp.eq", "i1", "true", "true", "1"},
    {"icmp.eq", "i1", "true", "false", "0"},
    {"icmp.ne", "i1", "false", "true", "1"},
    {"icmp.ne", "i1", "false", "false", "0"},
    {"icmp.eq", "ptr", "@g", "@g", "1"},
    {"icmp.eq", "ptr", "@g", "@h", "0"},
    {"icmp.eq", "ptr", "@g", "null", "0"},
    {"icmp.eq", "ptr", "null", "null", "1"},
    {"icmp.ne", "ptr", "@g", "@h", "1"},
    {"icmp.ne", "ptr", "@g", "@g", "0"},
    {"icmp.ne", "ptr", "null", "@h", "1"},

    // Float compares are ordered: NaN compares unequal to everything.
    {"fcmp.eq", "f64", "1.5", "1.5", "1"},
    {"fcmp.eq", "f64", "nan", "nan", "0"},
    {"fcmp.eq", "f64", "nan", "1.0", "0"},
    {"fcmp.eq", "f64", "0.0", "-0.0", "1"},
    {"fcmp.ne", "f64", "nan", "nan", "1"},
    {"fcmp.ne", "f64", "1.0", "nan", "1"},
    {"fcmp.ne", "f64", "2.0", "2.0", "0"},
    {"fcmp.lt", "f64", "1.0", "2.0", "1"},
    {"fcmp.lt", "f64", "nan", "1.0", "0"},
    {"fcmp.lt", "f64", "1.0", "nan", "0"},
    {"fcmp.lt", "f64", "-inf", "inf", "1"},
    {"fcmp.le", "f64", "2.0", "2.0", "1"},
    {"fcmp.le", "f64", "nan", "nan", "0"},
    {"fcmp.gt", "f64", "2.0", "1.0", "1"},
    {"fcmp.gt", "f64", "nan", "1.0", "0"},
    {"fcmp.ge", "f64", "2.0", "2.0", "1"},
    {"fcmp.ge", "f64", "1.0", "nan", "0"},

    // Casts.  FpToSi truncates toward zero; NaN and every value outside
    // [-2^63, 2^63) give INT64_MIN.
    {"sitofp", "i64", "3", nullptr, "3"},
    {"sitofp", "i64", "-7", nullptr, "-7"},
    {"sitofp", "i64", I64_MIN, nullptr, "-9.22337e+18"},
    {"sitofp", "i64", I64_MAX, nullptr, "9.22337e+18"},
    {"fptosi", "f64", "2.9", nullptr, "2"},
    {"fptosi", "f64", "-2.9", nullptr, "-2"},
    {"fptosi", "f64", "0.5", nullptr, "0"},
    {"fptosi", "f64", "9.2e18", nullptr, "9200000000000000000"},
    {"fptosi", "f64", "-9.2e18", nullptr, "-9200000000000000000"},
    {"fptosi", "f64", "-9223372036854775808.0", nullptr, I64_MIN},
    {"fptosi", "f64", "9223372036854775807.0", nullptr, I64_MIN},
    {"fptosi", "f64", "nan", nullptr, I64_MIN},
    {"fptosi", "f64", "1e300", nullptr, I64_MIN},
    {"fptosi", "f64", "-1e300", nullptr, I64_MIN},
    {"fptosi", "f64", "inf", nullptr, I64_MIN},
    {"fptosi", "f64", "-inf", nullptr, I64_MIN},
    {"zext", "i1", "true", nullptr, "1"},
    {"zext", "i1", "false", nullptr, "0"},
};

/** Where an operation's operands come from. */
enum class Form {
    Regs, ///< every operand is a register (@f's arguments)
    ImmB, ///< the last operand is an immediate
    ImmA, ///< the first operand is an immediate (binary opcodes)
};

const char *
formName(Form f)
{
    switch (f) {
      case Form::Regs: return "regs";
      case Form::ImmB: return "imm-b";
      case Form::ImmA: return "imm-a";
    }
    return "?";
}

std::string
resultType(const std::string &op)
{
    if (op.starts_with("icmp") || op.starts_with("fcmp"))
        return "i1";
    if (op == "sitofp" || (op.starts_with("f") && op != "fptosi"))
        return "f64";
    return "i64";
}

/** A module whose main() prints `op a, b` as @f computes it from its
 *  arguments a and b in form @p form. */
std::string
program(const char *op, const char *ty, const char *a, const char *b,
        Form form)
{
    const std::string t = ty, res = resultType(op);
    std::string params = t + " %a", args = a, expr;
    if (b) {
        params += ", " + t + " %b";
        args += ", " + std::string(b);
    }
    switch (form) {
      case Form::Regs: expr = b ? "%a, %b" : "%a"; break;
      case Form::ImmB: expr = b ? "%a, " + std::string(b) : a; break;
      case Form::ImmA: expr = std::string(a) + ", %b"; break;
    }
    const std::string print =
        res == "f64" ? "    call $print_f64(%v)\n"
        : res == "i1" ? "    %z = zext %v\n    call $print_i64(%z)\n"
                      : "    call $print_i64(%v)\n";
    return "global @g : i64[2]\n"
           "global @h : i64[2]\n"
           "func @f(" + params + ") -> " + res + " {\n"
           "entry:\n"
           "    %r = " + op + " " + expr + "\n"
           "    ret %r\n"
           "}\n"
           "func @main() -> i64 {\n"
           "entry:\n"
           "    %v = call @f(" + args + ")\n" + print +
           "    ret 0\n"
           "}\n";
}

/** Runs @p text on every engine variant (which must agree) and returns
 *  the production engine's run. */
RunResult
runText(const std::string &text)
{
    auto m = parseIR(text);
    if (!m)
        return {};
    return runEveryVariant(*m);
}

TEST(PureOps, EveryOpcodeMatchesItsTableOnEveryEngine)
{
    for (const Case &c : kCases) {
        for (Form form : {Form::Regs, Form::ImmB, Form::ImmA}) {
            if (form == Form::ImmA && !c.b)
                continue;
            const std::string ctx =
                std::string(c.op) + " " + c.a + (c.b ? ", " : "") +
                (c.b ? c.b : "") + " [" + formName(form) + "]";
            SCOPED_TRACE(ctx);
            RunResult r = runText(program(c.op, c.ty, c.a, c.b, form));
            ASSERT_EQ(r.outcome, Outcome::Success) << r.failureMsg;
            EXPECT_EQ(r.output, c.want);
        }
    }
}

TEST(PureOps, DivisionAndRemainderByZeroTrap)
{
    const struct
    {
        const char *op, *a, *msg;
    } traps[] = {
        {"sdiv", "7", "division by zero"},
        {"sdiv", I64_MIN, "division by zero"},
        {"srem", "7", "remainder by zero"},
        {"srem", I64_MIN, "remainder by zero"},
    };
    for (const auto &c : traps) {
        for (Form form : {Form::Regs, Form::ImmB, Form::ImmA}) {
            SCOPED_TRACE(std::string(c.op) + " " + c.a + ", 0 [" +
                         formName(form) + "]");
            RunResult r = runText(program(c.op, "i64", c.a, "0", form));
            EXPECT_EQ(r.outcome, Outcome::Trap);
            EXPECT_EQ(r.failureMsg, c.msg);
            EXPECT_EQ(r.output, "");
        }
    }
}

TEST(PureOps, PointerOffsetsWrapLikeAdd)
{
    // @adv advances a register pointer by a register offset; the
    // ptradds in main take an immediate one.  g + INT64_MAX + 1 wraps
    // to g + INT64_MIN, and two more steps wrap back to g itself.
    RunResult r = runText(R"(
global @g : i64[2]
func @adv(ptr %p, i64 %n) -> ptr {
entry:
    %q = ptradd %p, %n
    ret %q
}
func @main() -> i64 {
entry:
    store 42, @g
    %p1 = call @adv(@g, 9223372036854775807)
    %p2 = call @adv(%p1, 1)
    %lo = ptradd @g, -9223372036854775808
    %e1 = icmp.eq %p2, %lo
    %z1 = zext %e1
    call $print_i64(%z1)
    %e2 = icmp.ne %p2, @g
    %z2 = zext %e2
    call $print_i64(%z2)
    %p3 = ptradd %p2, 9223372036854775807
    %p4 = ptradd %p3, 1
    %e3 = icmp.eq %p4, @g
    %z3 = zext %e3
    call $print_i64(%z3)
    %v = load i64, %p4
    call $print_i64(%v)
    %bad = load i64, %p2
    ret 0
}
)");
    EXPECT_EQ(r.output, "11142");
    EXPECT_EQ(r.outcome, Outcome::Segfault);
    EXPECT_EQ(r.failureMsg, "load out of global bounds");
}

} // namespace
} // namespace conair::vm
