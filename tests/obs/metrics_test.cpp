/**
 * @file
 * MetricsRegistry unit tests: counter arithmetic, histogram bucket
 * placement, registry merge semantics, and the JSON serialization the
 * campaign report embeds.
 */
#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "vm/stats.h"

namespace conair::obs {
namespace {

TEST(Histogram, ObservePlacesValuesInBuckets)
{
    Histogram h;
    h.bounds = {10, 100, 1000};
    h.counts.assign(h.bounds.size() + 1, 0);
    h.observe(5);    // <= 10
    h.observe(10);   // <= 10 (bounds are inclusive upper edges)
    h.observe(11);   // <= 100
    h.observe(1001); // overflow
    EXPECT_EQ(h.counts[0], 2u);
    EXPECT_EQ(h.counts[1], 1u);
    EXPECT_EQ(h.counts[2], 0u);
    EXPECT_EQ(h.counts[3], 1u);
    EXPECT_EQ(h.count, 4u);
    EXPECT_EQ(h.sum, 5u + 10u + 11u + 1001u);
    EXPECT_EQ(h.max, 1001u);
    EXPECT_DOUBLE_EQ(h.mean(), double(h.sum) / 4.0);
}

TEST(Histogram, MergeAddsBucketwise)
{
    Histogram a, b;
    a.bounds = b.bounds = {10, 100};
    a.counts.assign(3, 0);
    b.counts.assign(3, 0);
    a.observe(1);
    b.observe(50);
    b.observe(5000);
    a.merge(b);
    EXPECT_EQ(a.count, 3u);
    EXPECT_EQ(a.counts[0], 1u);
    EXPECT_EQ(a.counts[1], 1u);
    EXPECT_EQ(a.counts[2], 1u);
    EXPECT_EQ(a.max, 5000u);
}

TEST(MetricsRegistry, CountersAccumulate)
{
    MetricsRegistry reg;
    EXPECT_TRUE(reg.empty());
    reg.add("rollbacks");
    reg.add("rollbacks", 4);
    EXPECT_EQ(reg.counter("rollbacks"), 5u);
    EXPECT_EQ(reg.counter("missing"), 0u);
    EXPECT_FALSE(reg.empty());
}

TEST(MetricsRegistry, ObserveCreatesHistogramOnFirstUse)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.histogram("lat"), nullptr);
    reg.observe("lat", 7, MetricsRegistry::latencyBucketsUs());
    reg.observe("lat", 300, MetricsRegistry::latencyBucketsUs());
    const Histogram *h = reg.histogram("lat");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 2u);
    EXPECT_EQ(h->max, 300u);
}

TEST(MetricsRegistry, ObserveBoundsAreFirstUseWins)
{
    // The bucket ladder is fixed by the first observe() of a name:
    // later observes with the *same* ladder fold in normally, and a
    // mismatched ladder is a caller bug — debug builds assert, release
    // builds keep the original ladder (counts stay coherent either
    // way).
    MetricsRegistry reg;
    reg.observe("lat", 7, MetricsRegistry::latencyBucketsUs());
    reg.observe("lat", 300, MetricsRegistry::latencyBucketsUs());
    const Histogram *h = reg.histogram("lat");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->bounds, MetricsRegistry::latencyBucketsUs());
    EXPECT_EQ(h->count, 2u);

    EXPECT_DEBUG_DEATH(
        reg.observe("lat", 1, MetricsRegistry::retryBuckets()),
        "bucket bounds differ from the histogram's first use");
#ifdef NDEBUG
    // Release builds took the observation into the original ladder.
    EXPECT_EQ(reg.histogram("lat")->bounds,
              MetricsRegistry::latencyBucketsUs());
    EXPECT_EQ(reg.histogram("lat")->count, 3u);
#endif
}

TEST(MetricsRegistry, MergeCombinesCountersAndHistograms)
{
    MetricsRegistry a, b;
    a.add("rollbacks", 2);
    b.add("rollbacks", 3);
    b.add("recoveries", 1);
    a.observe("retries", 2, MetricsRegistry::retryBuckets());
    b.observe("retries", 9, MetricsRegistry::retryBuckets());
    a.merge(b);
    EXPECT_EQ(a.counter("rollbacks"), 5u);
    EXPECT_EQ(a.counter("recoveries"), 1u);
    ASSERT_NE(a.histogram("retries"), nullptr);
    EXPECT_EQ(a.histogram("retries")->count, 2u);
    EXPECT_EQ(a.histogram("retries")->max, 9u);
}

TEST(MetricsRegistry, MergeIsOrderInsensitiveOnDisjointKeys)
{
    MetricsRegistry a, b, ab, ba;
    a.add("x", 1);
    b.add("y", 2);
    ab = a;
    ab.merge(b);
    ba = b;
    ba.merge(a);
    EXPECT_EQ(ab, ba);
}

TEST(MetricsRegistry, JsonIsSortedAndDeterministic)
{
    MetricsRegistry reg;
    reg.add("zeta", 1);
    reg.add("alpha", 2);
    reg.observe("lat", 42, MetricsRegistry::latencyBucketsUs());
    std::string j = reg.toJson();
    EXPECT_EQ(j, reg.toJson());
    // Map storage sorts keys.
    EXPECT_LT(j.find("alpha"), j.find("zeta"));
    EXPECT_NE(j.find("\"counters\""), std::string::npos);
    EXPECT_NE(j.find("\"histograms\""), std::string::npos);
    EXPECT_NE(j.find("\"mean\""), std::string::npos);
}

TEST(MetricsRegistry, ClearResetsEverything)
{
    MetricsRegistry reg;
    reg.add("x");
    reg.observe("h", 1, MetricsRegistry::retryBuckets());
    reg.clear();
    EXPECT_TRUE(reg.empty());
    EXPECT_EQ(reg.counter("x"), 0u);
    EXPECT_EQ(reg.histogram("h"), nullptr);
}

TEST(Histogram, QuantileInterpolatesWithinBuckets)
{
    Histogram h;
    h.bounds = {10, 100, 1000};
    h.counts.assign(4, 0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0); // empty
    for (uint64_t v = 1; v <= 100; ++v)
        h.observe(v); // uniform 1..100: 10 in [0,10], 90 in (10,100]
    // p50 = rank 50 -> 40th of 90 entries in the (10, 100] bucket.
    double p50 = h.quantile(0.5);
    EXPECT_GT(p50, 10.0);
    EXPECT_LE(p50, 100.0);
    EXPECT_NEAR(p50, 50.0, 10.0);
    // Quantiles are monotone and accessors agree with quantile().
    EXPECT_LE(h.p50(), h.p95());
    EXPECT_LE(h.p95(), h.p99());
    EXPECT_DOUBLE_EQ(h.p95(), h.quantile(0.95));
}

TEST(Histogram, QuantileClampsOverflowToObservedMax)
{
    Histogram h;
    h.bounds = {10};
    h.counts.assign(2, 0);
    h.observe(5);
    h.observe(70000); // overflow bucket
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 70000.0);
    // Interpolation never exceeds the observed max either.
    Histogram g;
    g.bounds = {1000};
    g.counts.assign(2, 0);
    g.observe(3);
    EXPECT_LE(g.quantile(0.99), 3.0);
}

TEST(MetricsRegistry, JsonCarriesQuantiles)
{
    MetricsRegistry reg;
    reg.observe("lat", 42, MetricsRegistry::latencyBucketsUs());
    std::string j = reg.toJson();
    EXPECT_NE(j.find("\"p50\""), std::string::npos);
    EXPECT_NE(j.find("\"p95\""), std::string::npos);
    EXPECT_NE(j.find("\"p99\""), std::string::npos);
}

TEST(MetricsRegistry, PrometheusTextExposition)
{
    MetricsRegistry reg;
    reg.add("rollbacks", 3);
    reg.add("site/assert.foo.3", 2); // '/' splits into a site label
    reg.observe("recovery_latency_us", 7,
                MetricsRegistry::latencyBucketsUs());
    reg.observe("recovery_latency_us", 5000,
                MetricsRegistry::latencyBucketsUs());
    std::string t = reg.toPrometheusText();

    EXPECT_NE(t.find("# TYPE rollbacks counter"), std::string::npos);
    EXPECT_NE(t.find("rollbacks 3"), std::string::npos);
    EXPECT_NE(t.find("site{site=\"assert.foo.3\"} 2"),
              std::string::npos);
    EXPECT_NE(t.find("# TYPE recovery_latency_us histogram"),
              std::string::npos);
    EXPECT_NE(t.find("recovery_latency_us_bucket{le=\"+Inf\"} 2"),
              std::string::npos);
    EXPECT_NE(t.find("recovery_latency_us_sum 5007"),
              std::string::npos);
    EXPECT_NE(t.find("recovery_latency_us_count 2"),
              std::string::npos);
    // Cumulative buckets: every le count is <= the +Inf count and
    // non-decreasing in bound order.
    EXPECT_EQ(t, reg.toPrometheusText()); // deterministic
}

TEST(MetricsRegistry, AddRunFoldsRunStats)
{
    MetricsRegistry none;
    none.addRun(vm::RunStats{});
    EXPECT_TRUE(none.empty()); // a run without recovery adds nothing

    // Compensation and chaos counters stay zero, so they stay absent.
    vm::RunStats run;
    run.checkpointsExecuted = 12;
    run.rollbacks = 4;
    run.backoffs = 1;
    run.recoveries.push_back({"assert.f.3", 2, 100, 150}); // 5 us
    run.recoveries.push_back({"oracle.g.7", 1, 200, 210}); // 1 us
    run.recoveries.push_back({"assert.f.3", 1, 400, 1400}); // 100 us
    run.ckptToFailureTicks =
        Histogram(MetricsRegistry::tickDistanceBuckets());
    for (uint64_t d : {0u, 2u, 2u, 40u})
        run.ckptToFailureTicks.observe(d);

    MetricsRegistry reg;
    reg.addRun(run);
    EXPECT_EQ(
        reg.toJson(0),
        R"({"counters":{"backoffs":1,"checkpoints":12,"recoveries":3,)"
        R"("retries_by_site/assert.f.3":3,"retries_by_site/oracle.g.7":1,)"
        R"("rollbacks":4},"histograms":{)"
        R"("ckpt_to_failure_ticks":{"count":4,"sum":44,"max":40,)"
        R"("mean":11.000,"p50":1.500,"p95":40.000,"p99":40.000,)"
        R"("bounds":[0,1,2,4,8,16,32,64,128,256,1024,8192],)"
        R"("buckets":[1,0,2,0,0,0,0,1,0,0,0,0,0]},)"
        R"("recovery_latency_us":{"count":3,"sum":106,"max":100,)"
        R"("mean":35.333,"p50":3.500,"p95":92.500,"p99":98.500,)"
        R"("bounds":[1,2,5,10,20,50,100,200,500,1000,2000,5000,10000,)"
        R"(100000],"buckets":[1,0,1,0,0,0,1,0,0,0,0,0,0,0,0]},)"
        R"("recovery_retries":{"count":3,"sum":4,"max":2,"mean":1.333,)"
        R"("p50":0.750,"p95":1.850,"p99":1.970,)"
        R"("bounds":[1,2,3,4,6,8,12,16,32],)"
        R"("buckets":[2,1,0,0,0,0,0,0,0,0]}}})");
}

TEST(MetricsRegistry, BucketLaddersAreSorted)
{
    for (const auto &bounds : {MetricsRegistry::latencyBucketsUs(),
                               MetricsRegistry::retryBuckets(),
                               MetricsRegistry::tickDistanceBuckets()}) {
        ASSERT_FALSE(bounds.empty());
        for (size_t i = 1; i < bounds.size(); ++i)
            EXPECT_LT(bounds[i - 1], bounds[i]);
    }
}

} // namespace
} // namespace conair::obs
