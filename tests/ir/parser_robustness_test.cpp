/**
 * @file
 * Negative/robustness tests for the MiniIR text parser: malformed
 * inputs must produce diagnostics, never crashes or invalid modules.
 */
#include <gtest/gtest.h>

#include "ir/parser.h"
#include "ir/verifier.h"

namespace conair::ir {
namespace {

void
expectRejected(const std::string &text)
{
    DiagEngine d;
    auto m = parseModule(text, d);
    EXPECT_EQ(m, nullptr) << text;
    EXPECT_TRUE(d.hasErrors()) << text;
}

TEST(ParserRobustness, EmptyInputIsAValidEmptyModule)
{
    DiagEngine d;
    auto m = parseModule("", d);
    ASSERT_NE(m, nullptr);
    EXPECT_TRUE(m->functions().empty());
}

TEST(ParserRobustness, RejectsGarbage)
{
    expectRejected("garbage tokens here");
    expectRejected("func");
    expectRejected("func @f");
    expectRejected("func @f() -> i64");
    expectRejected("global @g");
    expectRejected("global @g : banana[1]");
    expectRejected("mutex");
}

TEST(ParserRobustness, RejectsBodyProblems)
{
    expectRejected(R"(
func @f() -> i64 {
entry:
    %0 = frobnicate 1, 2
    ret %0
}
)");
    expectRejected(R"(
func @f() -> i64 {
    ret 0
}
)"); // instruction before any label
    expectRejected(R"(
func @f() -> i64 {
entry:
    br nowhere
}
)");
    expectRejected(R"(
func @f() -> i64 {
entry:
    %0 = call @missing(1)
    ret %0
}
)");
    expectRejected(R"(
func @f() -> i64 {
entry:
    %0 = load i64, @missing_global
    ret %0
}
)");
}

TEST(ParserRobustness, RejectsOutOfRangeIntegers)
{
    for (const char *lit :
         {"9223372036854775808", "-9223372036854775809",
          "99999999999999999999999999"}) {
        std::string text = "func @f() -> i64 {\nentry:\n    ret " +
                           std::string(lit) + "\n}\n";
        DiagEngine d;
        EXPECT_EQ(parseModule(text, d), nullptr) << lit;
        EXPECT_EQ(d.str(), "3:9: error: integer literal out of range\n")
            << lit;
    }
}

TEST(ParserRobustness, RejectsDuplicateDefinitions)
{
    expectRejected(R"(
func @f() -> i64 {
entry:
    ret 0
}
func @f() -> i64 {
entry:
    ret 1
}
)");
    expectRejected(R"(
global @g : i64[1]
global @g : i64[1]
)");
    expectRejected("global @g : i64[0]");
}

TEST(ParserRobustness, StrayTokensAfterInstruction)
{
    expectRejected(R"(
func @f() -> i64 {
entry:
    ret 0 ]]]]
}
)");
}

TEST(ParserRobustness, TruncatedInputs)
{
    // Prefixes of a valid program: none may crash.
    const std::string program = R"(
global @g : i64[4] = [1, 2, 3, 4]

func @main() -> i64 {
entry:
    %0 = load i64, @g
    %1 = add %0, 1
    condbr true, a, b
a:
    ret %1
b:
    call $print_str("x")
    ret 0
}
)";
    for (size_t len = 0; len < program.size(); len += 7) {
        DiagEngine d;
        auto m = parseModule(program.substr(0, len), d);
        if (m) {
            DiagEngine dv;
            verifyModule(*m, dv); // must not crash either
        }
    }
    SUCCEED();
}

} // namespace
} // namespace conair::ir
