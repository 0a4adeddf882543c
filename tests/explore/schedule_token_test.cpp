/**
 * @file
 * The hardened repro-token parser: strict rejection of malformed
 * tokens with one-line errors, plus a small property/fuzz sweep — a
 * token either parses to a spec that round-trips, or fails cleanly;
 * mistyped tokens must never silently explore a different schedule.
 */
#include <gtest/gtest.h>

#include "explore/campaign.h"

namespace conair::explore {
namespace {

TEST(ScheduleTokenStrict, AcceptsCanonicalTokens)
{
    const ScheduleSpec specs[] = {
        {vm::SchedPolicy::Pct, 1, 1, {}},
        // The largest seed and the largest depth a token may carry.
        {vm::SchedPolicy::Pct, 18446744073709551615ull, kMaxScheduleDepth,
         {}},
        {vm::SchedPolicy::PreemptBound, 7, 2, {}},
        {vm::SchedPolicy::Random, 0, 0, {}},
        {vm::SchedPolicy::RoundRobin, 42, 0, {}},
    };
    for (const ScheduleSpec &s : specs) {
        ScheduleSpec parsed;
        std::string err;
        ASSERT_TRUE(parseScheduleToken(s.token(), parsed, err))
            << s.token() << ": " << err;
        EXPECT_EQ(parsed, s) << s.token();
        EXPECT_TRUE(err.empty());
    }
    // Field order is free; depth on non-PCT policies is tolerated.
    ScheduleSpec parsed;
    std::string err;
    ASSERT_TRUE(parseScheduleToken("pct:s5:d2", parsed, err)) << err;
    EXPECT_EQ(parsed, (ScheduleSpec{vm::SchedPolicy::Pct, 5, 2, {}}));
    EXPECT_TRUE(parseScheduleToken("random:d3:s1", parsed, err));
    // The depth limit itself parses (parsing samples no points).
    ASSERT_TRUE(parseScheduleToken("pb:d65536:s1", parsed, err)) << err;
    EXPECT_EQ(parsed.depth, kMaxScheduleDepth);
}

TEST(ScheduleTokenStrict, RejectsMalformedWithOneLineError)
{
    const char *bad[] = {
        "",                                  // no policy
        "pct",                               // no seed
        "pct:d3",                            // no seed
        "pct:s1",                            // PCT needs depth
        "pb:s1",                             // PB needs depth
        "pct:d0:s1",                         // zero depth
        "warp:d1:s1",                        // bad policy
        "PCT:d1:s1",                         // case matters
        "pct:d3:s1x",                        // trailing junk
        "pct:d:s1",                          // empty number
        "pct:d3:s",                          // empty number
        "pct:d3:s+1",                        // sign prefix
        "pct:d3:s-1",                        // negative
        "pct:d3:s 1",                        // embedded space
        "pct:d3:s0x10",                      // hex
        "pct:d3:s18446744073709551616",      // u64 overflow
        "pct:d4294967296:s1",                // depth > u32
        "pct:d65537:s1",                     // depth > kMaxScheduleDepth
        "pb:d65537:s1",                      // depth > kMaxScheduleDepth
        "pct:d3:s1:s2",                      // duplicate seed
        "pct:d3:d2:s1",                      // duplicate depth
        "pct:d3:q1:s1",                      // unknown field
        "pct::s1",                           // empty field
        "rr:s1:",                            // trailing separator
    };
    for (const char *tok : bad) {
        ScheduleSpec s;
        std::string err;
        EXPECT_FALSE(parseScheduleToken(tok, s, err)) << tok;
        EXPECT_FALSE(err.empty()) << tok;
        EXPECT_EQ(err.find('\n'), std::string::npos) << err;
        EXPECT_NE(err.find(tok), std::string::npos)
            << "error should quote the token: " << err;
    }
}

TEST(ScheduleTokenStrict, PointsFieldRoundTripsOnSystematicPolicies)
{
    // The c field pins explicit change points (VmConfig::schedPoints):
    // strictly increasing ticks >= 1, pct/pb only, at most once.
    ScheduleSpec s{vm::SchedPolicy::Pct, 17, 3, {}};
    s.points = {120, 340};
    EXPECT_EQ(s.token(), "pct:d3:s17:c120,340");

    ScheduleSpec parsed;
    std::string err;
    ASSERT_TRUE(parseScheduleToken(s.token(), parsed, err)) << err;
    EXPECT_EQ(parsed, s);

    ScheduleSpec pb{vm::SchedPolicy::PreemptBound, 5, 2, {}};
    pb.points = {1};
    ASSERT_TRUE(parseScheduleToken("pb:d2:s5:c1", parsed, err)) << err;
    EXPECT_EQ(parsed, pb);

    // Field order is free, like d and s.
    ASSERT_TRUE(parseScheduleToken("pct:c9,10:d2:s3", parsed, err))
        << err;
    EXPECT_EQ(parsed.points, (std::vector<uint64_t>{9, 10}));

    // applyTo carries the points into the VM config.
    vm::VmConfig cfg;
    s.applyTo(cfg);
    EXPECT_EQ(cfg.schedPoints, s.points);
}

TEST(ScheduleTokenStrict, RejectsMalformedPointsField)
{
    const char *bad[] = {
        "pct:d3:s1:c",            // empty list
        "pct:d3:s1:c0",           // tick 0
        "pct:d3:s1:c5,5",         // not strictly increasing
        "pct:d3:s1:c9,3",         // decreasing
        "pct:d3:s1:c1,,2",        // empty item
        "pct:d3:s1:c1,",          // trailing comma
        "pct:d3:s1:c1x",          // junk in a tick
        "pct:d3:s1:c-1",          // sign
        "pct:d3:s1:c1:c2",        // duplicate c field
        "random:s1:c1",           // random takes no points
        "rr:s1:c1",               // rr takes no points
        "pct:d3:s1:c18446744073709551616", // overflow
    };
    for (const char *tok : bad) {
        ScheduleSpec s;
        std::string err;
        EXPECT_FALSE(parseScheduleToken(tok, s, err)) << tok;
        EXPECT_FALSE(err.empty()) << tok;
        EXPECT_EQ(err.find('\n'), std::string::npos) << err;
    }
}

// Property sweep: random mutations of valid tokens either parse to a
// spec whose canonical token parses back to the same spec, or fail
// cleanly with a one-line error.  The parser must never produce a
// spec that disagrees with its own serialisation (the "silent
// different schedule" failure mode), and must never crash.
TEST(ScheduleTokenStrict, FuzzedTokensParseOrFailCleanly)
{
    uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    const std::string alphabet = "pctrbandomsd0123456789:+- x\tq";

    unsigned parsedOk = 0;
    for (int iter = 0; iter < 20'000; ++iter) {
        std::string tok;
        switch (next() % 3) {
          case 0: // fully random
            for (uint64_t len = next() % 24; len > 0; --len)
                tok += alphabet[next() % alphabet.size()];
            break;
          case 1: { // mutated valid token
            ScheduleSpec s{vm::SchedPolicy::Pct, next() % 1000,
                           uint32_t(1 + next() % 5), {}};
            tok = s.token();
            size_t pos = next() % tok.size();
            tok[pos] = alphabet[next() % alphabet.size()];
            break;
          }
          default: { // structurally valid
            ScheduleSpec s{next() % 2 == 0 ? vm::SchedPolicy::Pct
                                           : vm::SchedPolicy::Random,
                           next(), uint32_t(1 + next() % 9), {}};
            tok = s.token();
            break;
          }
        }

        ScheduleSpec s;
        std::string err;
        if (parseScheduleToken(tok, s, err)) {
            ++parsedOk;
            EXPECT_TRUE(err.empty()) << tok;
            // Canonical round-trip: the spec's own token re-parses to
            // the identical spec.
            ScheduleSpec again;
            ASSERT_TRUE(parseScheduleToken(s.token(), again, err))
                << tok << " -> " << s.token() << ": " << err;
            EXPECT_EQ(again, s) << tok;
        } else {
            EXPECT_FALSE(err.empty()) << tok;
            EXPECT_EQ(err.find('\n'), std::string::npos) << err;
        }
    }
    // The structurally-valid third keeps the sweep from degenerating
    // into rejection-only coverage.
    EXPECT_GT(parsedOk, 5'000u);
}

} // namespace
} // namespace conair::explore
