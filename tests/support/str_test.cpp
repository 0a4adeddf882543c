#include "support/str.h"

#include <gtest/gtest.h>

#include "tests/support/temp_path.h"

namespace conair {
namespace {

TEST(StrFmt, FormatsBasicTypes)
{
    EXPECT_EQ(strfmt("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
    EXPECT_EQ(strfmt("%s", "hello"), "hello");
    EXPECT_EQ(strfmt("%lld", (long long)-9007199254740993ll),
              "-9007199254740993");
}

TEST(StrFmt, EmptyFormat)
{
    EXPECT_EQ(strfmt("%s", ""), "");
}

TEST(Join, JoinsWithSeparator)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({"solo"}, ", "), "solo");
    EXPECT_EQ(join({}, ", "), "");
}

TEST(FpToStr, RoundTripsExactly)
{
    for (double v : {0.0, 1.0, -1.5, 3.141592653589793, 1e-300, 1e300,
                     0.1, 2.2250738585072014e-308}) {
        std::string s = fpToStr(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
}

TEST(FpToStr, IntegralValuesKeepFloatMarker)
{
    // Must parse back as a float token, not an integer.
    EXPECT_NE(fpToStr(4.0).find_first_of(".e"), std::string::npos);
}

TEST(Escape, RoundTrips)
{
    for (std::string s : {"plain", "with\nnewline", "tab\there",
                          "quote\"inside", "back\\slash", ""}) {
        EXPECT_EQ(unescape(escape(s)), s);
    }
}

TEST(ParseU64, AcceptsPlainDigitsOnly)
{
    uint64_t v = 7;
    EXPECT_TRUE(parseU64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseU64("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
    for (const char *bad : {"", "abc", "-1", "+1", " 1", "1 ", "1x",
                            "0x10", "18446744073709551616"}) {
        v = 7;
        EXPECT_FALSE(parseU64(bad, v)) << bad;
        EXPECT_EQ(v, 7u) << bad;
    }
}

TEST(WholeFile, RoundTripsBytesAndReportsErrors)
{
    testutil::TempPath tmp("str_test_file.bin");
    const std::string &path = tmp.str();
    const std::string bytes("a\0b\r\n", 5);
    std::string err, back;
    ASSERT_TRUE(writeFile(path, bytes, err)) << err;
    ASSERT_TRUE(readFile(path, back, err)) << err;
    EXPECT_EQ(back, bytes);
    EXPECT_TRUE(err.empty());

    EXPECT_FALSE(readFile(path + ".missing", back, err));
    EXPECT_EQ(err, "cannot open " + path + ".missing");
    EXPECT_FALSE(writeFile(path + "/under-a-file", "", err));
    EXPECT_EQ(err, "cannot write " + path + "/under-a-file");
}

TEST(StartsWith, Basics)
{
    EXPECT_TRUE(startsWith("conair", "con"));
    EXPECT_TRUE(startsWith("x", ""));
    EXPECT_FALSE(startsWith("con", "conair"));
}

} // namespace
} // namespace conair
