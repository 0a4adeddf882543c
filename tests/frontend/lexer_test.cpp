#include <cstdint>

#include <gtest/gtest.h>

#include "frontend/lexer.h"

namespace conair::fe {
namespace {

std::vector<Token>
lexOk(const std::string &src)
{
    DiagEngine d;
    auto toks = lex(src, d);
    EXPECT_FALSE(d.hasErrors()) << d.str();
    return toks;
}

TEST(Lexer, KeywordsAndIdents)
{
    auto t = lexOk("int foo while whiles");
    ASSERT_EQ(t.size(), 5u); // + End
    EXPECT_EQ(t[0].kind, Tk::KwInt);
    EXPECT_EQ(t[1].kind, Tk::Ident);
    EXPECT_EQ(t[1].text, "foo");
    EXPECT_EQ(t[2].kind, Tk::KwWhile);
    EXPECT_EQ(t[3].kind, Tk::Ident); // not a keyword
    EXPECT_EQ(t[4].kind, Tk::End);
}

TEST(Lexer, NumbersIntAndFloat)
{
    auto t = lexOk("42 3.5 1e3 0 7.");
    EXPECT_EQ(t[0].kind, Tk::IntLit);
    EXPECT_EQ(t[0].ival, 42);
    EXPECT_EQ(t[1].kind, Tk::FloatLit);
    EXPECT_DOUBLE_EQ(t[1].fval, 3.5);
    EXPECT_EQ(t[2].kind, Tk::FloatLit);
    EXPECT_DOUBLE_EQ(t[2].fval, 1000.0);
    EXPECT_EQ(t[3].kind, Tk::IntLit);
    EXPECT_EQ(t[4].kind, Tk::FloatLit);
}

TEST(Lexer, MultiCharOperators)
{
    auto t = lexOk("== != <= >= && || << >> += -= ++ --");
    Tk expect[] = {Tk::Eq, Tk::Ne, Tk::Le, Tk::Ge, Tk::AmpAmp,
                   Tk::PipePipe, Tk::Shl, Tk::Shr, Tk::PlusAssign,
                   Tk::MinusAssign, Tk::PlusPlus, Tk::MinusMinus};
    for (size_t i = 0; i < std::size(expect); ++i)
        EXPECT_EQ(t[i].kind, expect[i]) << i;
}

TEST(Lexer, StringsWithEscapes)
{
    auto t = lexOk(R"("hello\nworld")");
    ASSERT_EQ(t[0].kind, Tk::StrLit);
    EXPECT_EQ(t[0].text, "hello\nworld");
}

TEST(Lexer, CommentsAreSkipped)
{
    auto t = lexOk("a // line comment\nb /* block\ncomment */ c");
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[0].text, "a");
    EXPECT_EQ(t[1].text, "b");
    EXPECT_EQ(t[2].text, "c");
}

TEST(Lexer, TracksLineNumbers)
{
    auto t = lexOk("a\nb\n  c");
    EXPECT_EQ(t[0].loc.line, 1u);
    EXPECT_EQ(t[1].loc.line, 2u);
    EXPECT_EQ(t[2].loc.line, 3u);
    EXPECT_EQ(t[2].loc.col, 3u);
}

TEST(Lexer, UnterminatedStringIsError)
{
    DiagEngine d;
    lex("\"oops", d);
    EXPECT_TRUE(d.hasErrors());
}

TEST(Lexer, OutOfRangeIntegerIsError)
{
    DiagEngine d;
    lex("int x = 99999999999999999999999999;", d);
    EXPECT_EQ(d.str(), "1:9: error: integer literal out of range\n");

    auto t = lexOk("9223372036854775807"); // INT64_MAX still fits
    EXPECT_EQ(t[0].ival, INT64_MAX);
}

TEST(Lexer, StrayCharacterIsError)
{
    DiagEngine d;
    lex("a ? b", d);
    EXPECT_TRUE(d.hasErrors());
}

} // namespace
} // namespace conair::fe
