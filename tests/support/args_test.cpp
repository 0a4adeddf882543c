#include "support/args.h"

#include <climits>

#include <gtest/gtest.h>

namespace conair {
namespace {

using enum FlagKind;

const ArgSpec kSpec = {{{"--smoke"},
                        {"--trace", Text},
                        {"--delay", List},
                        {"--seeds", Number, UINT_MAX},
                        {"--serve", Number, 65535}},
                       1,
                       2};

/** Parses @p argv against kSpec; "" on success, else the error. */
std::string
parseError(const std::vector<std::string> &argv, Args *out = nullptr)
{
    Args args;
    std::string err;
    bool ok = parseArgs(kSpec, argv, args, err);
    EXPECT_EQ(ok, err.empty()) << err;
    if (out)
        *out = args;
    return err;
}

TEST(Args, ParsesEveryKind)
{
    Args a;
    ASSERT_EQ(parseError({"APP", "--smoke", "--trace", "t.json", "--delay",
                          "1:50", "--seeds", "7", "TOKEN", "--delay",
                          "2:9"},
                         &a),
              "");
    EXPECT_EQ(a.positionals, (std::vector<std::string>{"APP", "TOKEN"}));
    EXPECT_TRUE(a.has("--smoke"));
    EXPECT_FALSE(a.has("--serve"));
    EXPECT_EQ(a.text("--trace"), "t.json");
    EXPECT_EQ(a.text("--serve", "none"), "none");
    EXPECT_EQ(a.list("--delay"),
              (std::vector<std::string>{"1:50", "2:9"}));
    EXPECT_EQ(a.number("--seeds", 40), 7u);
    EXPECT_EQ(a.number("--serve", 5), 5u);
}

TEST(Args, EmptyOperandIsAnOperand)
{
    // `--replay-dir ""` is how bench_explore turns the corpus off.
    Args a;
    ASSERT_EQ(parseError({"APP", "--trace", ""}, &a), "");
    EXPECT_TRUE(a.has("--trace"));
    EXPECT_EQ(a.text("--trace", "default"), "");
}

TEST(Args, RejectsUnknownFlag)
{
    EXPECT_EQ(parseError({"APP", "--smok"}), "unknown flag '--smok'");
    EXPECT_EQ(parseError({"APP", "-"}), "unknown flag '-'");
}

TEST(Args, RejectsMissingOperand)
{
    EXPECT_EQ(parseError({"APP", "--trace"}), "--trace needs an operand");
    // A flag is never taken as the operand of the one before it.
    EXPECT_EQ(parseError({"APP", "--trace", "--smoke"}),
              "--trace needs an operand");
    EXPECT_EQ(parseError({"APP", "--seeds"}), "--seeds needs an operand");
}

TEST(Args, RejectsStrayAndMissingPositionals)
{
    EXPECT_EQ(parseError({"A", "B", "C"}), "unexpected argument 'C'");
    EXPECT_EQ(parseError({"--smoke"}), "expected 1 argument, got 0");

    ArgSpec none = {{{"--smoke"}}};
    Args a;
    std::string err;
    EXPECT_FALSE(parseArgs(none, {"--smoke", "extra"}, a, err));
    EXPECT_EQ(err, "unexpected argument 'extra'");
}

TEST(Args, RepeatedFlagIsAnErrorUnlessList)
{
    EXPECT_EQ(parseError({"APP", "--seeds", "5", "--seeds", "6"}),
              "--seeds given twice");
    EXPECT_EQ(parseError({"APP", "--smoke", "--smoke"}),
              "--smoke given twice");
    Args a;
    ASSERT_EQ(parseError({"APP", "--delay", "1:2", "--delay", "1:2"}, &a),
              "");
    EXPECT_EQ(a.list("--delay").size(), 2u);
}

TEST(Args, NumbersAreStrict)
{
    EXPECT_EQ(parseError({"APP", "--seeds", "abc"}),
              "--seeds: 'abc' is not a number in [0, 4294967295]");
    EXPECT_NE(parseError({"APP", "--seeds", "12x"}), "");
    EXPECT_NE(parseError({"APP", "--seeds", "+5"}), "");
    // Overflows u64, then overflows the flag's own maximum.
    EXPECT_NE(parseError({"APP", "--seeds", "18446744073709551616"}), "");
    EXPECT_NE(parseError({"APP", "--seeds", "4294967296"}), "");
    EXPECT_EQ(parseError({"APP", "--serve", "65536"}),
              "--serve: '65536' is not a number in [0, 65535]");

    Args a;
    ASSERT_EQ(parseError({"APP", "--seeds", "4294967295", "--serve",
                          "65535"},
                         &a),
              "");
    EXPECT_EQ(a.number("--seeds", 0), 4294967295u);
    EXPECT_EQ(a.number("--serve", 0), 65535u);
}

} // namespace
} // namespace conair
