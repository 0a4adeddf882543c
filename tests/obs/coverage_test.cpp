/**
 * @file
 * Interleaving-coverage tests (src/obs/coverage/).  Three properties
 * are pinned:
 *
 *  1. *Fold semantics.*  Each EdgeKind fires exactly when its
 *     definition says: SyncSync on consecutive sync-relevant events
 *     across a thread change, SwitchWindow around a SchedSwitch,
 *     RacyPair on a foreign shared store followed by a shared access
 *     to the same cell.  Scheduler noise and annotation events never
 *     produce edges.
 *
 *  2. *Determinism.*  Same trace, same fold, same digest — and the
 *     digest is a set-union invariant (the order edges are discovered
 *     in does not matter).  The live campaign union is pinned on the
 *     telemetry in tests/explore/campaign_test.cpp.
 *
 *  3. *Passivity.*  A run with coverage-grade recording attached
 *     (recorder + diagnosis mode) is tick-for-tick identical to the
 *     bare run on all three engine variants — including memDigest.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apps/harness.h"
#include "obs/coverage/coverage.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "tests/support/engine_variants.h"
#include "vm/interp.h"

namespace conair {
namespace {

using obs::EventKind;
using obs::FlightRecorder;
using namespace obs::cov;

// FNV-1a offset basis: the digest of the empty edge set.
constexpr uint64_t kEmptyDigest = 14695981039346656037ull;

TEST(CoverageFold, SyncSyncFiresAcrossThreadChangeOnly)
{
    FlightRecorder rec(256);
    // Two lock acquires by the same thread: no edge.
    rec.record(0, EventKind::LockAcquire, 10, 1, 7, 0, "site.a");
    rec.record(0, EventKind::LockAcquire, 12, 2, 8, 0, "site.b");
    // Then thread 1 touches a lock: one SyncSync edge (b -> c).
    rec.record(1, EventKind::LockAcquire, 14, 3, 9, 0, "site.c");

    CoverageFold fold = foldCoverage(rec);
    ASSERT_EQ(fold.edges.size(), 1u);
    EXPECT_EQ(fold.edges[0].kind, EdgeKind::SyncSync);
    EXPECT_EQ(fold.perKind[size_t(EdgeKind::SyncSync)], 1u);
    EXPECT_EQ(fold.perKind[size_t(EdgeKind::SwitchWindow)], 0u);
    EXPECT_EQ(fold.perKind[size_t(EdgeKind::RacyPair)], 0u);
    // Discovery point is the destination event.
    EXPECT_EQ(fold.edges[0].tid, 1u);
    EXPECT_EQ(fold.edges[0].clock, 14u);
    EXPECT_EQ(fold.edges[0].step, 3u);
}

TEST(CoverageFold, SwitchWindowSpansSchedulerNoise)
{
    FlightRecorder rec(256);
    rec.record(0, EventKind::LockAcquire, 10, 1, 7, 0, "site.a");
    rec.record(0, EventKind::SchedSwitch, 11, 1, 0, 2);
    // Noise between the switch and the first real event is skipped.
    rec.record(1, EventKind::SchedPoint, 11, 1, 0, 0);
    rec.record(1, EventKind::Checkpoint, 12, 2, 3, 5, "site.b");

    CoverageFold fold = foldCoverage(rec);
    ASSERT_EQ(fold.edges.size(), 1u);
    EXPECT_EQ(fold.edges[0].kind, EdgeKind::SwitchWindow);
    EXPECT_EQ(fold.perKind[size_t(EdgeKind::SwitchWindow)], 1u);
}

TEST(CoverageFold, RacyPairNeedsForeignStoreOnSameCell)
{
    FlightRecorder rec(256);
    // Store by t0 on cell 5, load by t1 on cell 5: racy pair.
    rec.record(0, EventKind::SharedStore, 10, 1, 5, 42, "w.x");
    rec.record(1, EventKind::SharedLoad, 12, 2, 5, 42, "r.x");
    // Load by t1 on a *different* cell: no new racy pair.
    rec.record(1, EventKind::SharedLoad, 13, 3, 6, 0, "r.y");
    // Store + load by the same thread on cell 7: no racy pair.
    rec.record(0, EventKind::SharedStore, 14, 4, 7, 1, "w.z");
    rec.record(0, EventKind::SharedLoad, 15, 5, 7, 1, "r.z");

    CoverageFold fold = foldCoverage(rec);
    EXPECT_EQ(fold.perKind[size_t(EdgeKind::RacyPair)], 1u);
    auto racy = std::find_if(fold.edges.begin(), fold.edges.end(),
                             [](const Edge &e) {
                                 return e.kind == EdgeKind::RacyPair;
                             });
    ASSERT_NE(racy, fold.edges.end());
    EXPECT_EQ(racy->tid, 1u);
    EXPECT_EQ(racy->clock, 12u);
}

TEST(CoverageFold, SchedulerNoiseAloneProducesNoEdges)
{
    FlightRecorder rec(256);
    rec.record(0, EventKind::ThreadSpawn, 1, 0, 1, 0);
    rec.record(0, EventKind::SchedSwitch, 2, 0, 0, 2);
    rec.record(1, EventKind::SchedPoint, 3, 0, 0, 0);
    rec.record(1, EventKind::SchedSwitch, 4, 0, 1, 2);

    CoverageFold fold = foldCoverage(rec);
    EXPECT_TRUE(fold.edges.empty());
}

TEST(CoverageFold, DedupKeepsFirstDiscoveryAndSortsByKey)
{
    FlightRecorder once(256), thrice(256);
    for (int round = 0; round < 3; ++round) {
        // The same interleaving pattern repeated: an edge seen in
        // round one keeps its round-one discovery point.
        FlightRecorder *recs[] = {&thrice, round == 0 ? &once : nullptr};
        for (FlightRecorder *r : recs) {
            if (!r)
                continue;
            r->record(0, EventKind::SharedStore,
                      uint64_t(100 * round + 10), uint64_t(round), 5, 0,
                      "w.x");
            r->record(1, EventKind::SharedLoad,
                      uint64_t(100 * round + 12), uint64_t(round), 5, 0,
                      "r.x");
        }
    }
    CoverageFold first = foldCoverage(once);
    CoverageFold fold = foldCoverage(thrice);
    ASSERT_FALSE(first.edges.empty());
    for (const Edge &e : first.edges) {
        auto it = std::find_if(fold.edges.begin(), fold.edges.end(),
                               [&](const Edge &x) {
                                   return x.key == e.key;
                               });
        ASSERT_NE(it, fold.edges.end());
        EXPECT_EQ(it->clock, e.clock) << "discovery point not the first";
    }
    EXPECT_TRUE(std::is_sorted(
        fold.edges.begin(), fold.edges.end(),
        [](const Edge &x, const Edge &y) { return x.key < y.key; }));
    for (const Edge &e : fold.edges)
        EXPECT_NE(e.key, 0u) << "0 is the map's empty-slot sentinel";
}

TEST(CoverageFold, SwitchWindowAndSyncSyncNeverDoubleCountOnePair)
{
    // One interleaving fact, two candidate folds: a SchedSwitch
    // between a sync-relevant event on t0 and one on t1 closes the
    // switch window on exactly the (from, to) site pair the
    // cross-thread sync fold would also record.  Two kinds mean two
    // distinct keys, so without the per-run pair dedup the same fact
    // would be charged twice — inflating novelty counts and the
    // guided explorer's mutation energy downstream.
    FlightRecorder rec(256);
    rec.record(0, EventKind::SharedStore, 10, 1, 5, 0, "w.x");
    rec.record(0, EventKind::SchedSwitch, 11, 1, 0, 1);
    // Different cell so RacyPair (distinct endpoint semantics, store
    // site on the same address) stays out of the picture.
    rec.record(1, EventKind::SharedLoad, 12, 2, 6, 0, "r.y");

    CoverageFold fold = foldCoverage(rec);
    ASSERT_EQ(fold.edges.size(), 1u);
    // The window check runs first, so SwitchWindow owns the pair.
    EXPECT_EQ(fold.edges[0].kind, EdgeKind::SwitchWindow);
    EXPECT_EQ(fold.perKind[size_t(EdgeKind::SwitchWindow)], 1u);
    EXPECT_EQ(fold.perKind[size_t(EdgeKind::SyncSync)], 0u);
}

TEST(CoverageFold, DistinctPairsKeepBothWindowAndSyncEdges)
{
    // Control for the dedup above: when the window closes on a
    // *different* from-site than the last sync event (a non-sync
    // event slid in between), the two folds record genuinely
    // different pairs and both edges survive.
    FlightRecorder rec(256);
    rec.record(0, EventKind::LockAcquire, 10, 1, 7, 0, "site.a");
    rec.record(0, EventKind::Checkpoint, 11, 2, 3, 0, "site.b");
    rec.record(0, EventKind::SchedSwitch, 12, 2, 0, 1);
    rec.record(1, EventKind::LockAcquire, 13, 3, 8, 0, "site.c");

    CoverageFold fold = foldCoverage(rec);
    // SwitchWindow: b -> c; SyncSync: a -> c.
    ASSERT_EQ(fold.edges.size(), 2u);
    EXPECT_EQ(fold.perKind[size_t(EdgeKind::SwitchWindow)], 1u);
    EXPECT_EQ(fold.perKind[size_t(EdgeKind::SyncSync)], 1u);
}

TEST(CoverageFold, RefoldingAnnotatedTraceIsStable)
{
    FlightRecorder rec(256);
    rec.record(0, EventKind::SharedStore, 10, 1, 5, 0, "w.x");
    rec.record(1, EventKind::SharedLoad, 12, 2, 5, 0, "r.x");

    CoverageFold before = foldCoverage(rec);
    annotateRecorder(rec, before.edges, before.edges.size());
    CoverageFold after = foldCoverage(rec);

    EXPECT_EQ(coverageDigest(after.edges), coverageDigest(before.edges));
    EXPECT_EQ(after.edges.size(), before.edges.size());
}

TEST(CoverageDigest, EmptySetDigestIsOffsetBasisAndOrderInvariant)
{
    EXPECT_EQ(coverageDigest(std::vector<uint64_t>{}), kEmptyDigest);

    FlightRecorder rec(256);
    rec.record(0, EventKind::LockAcquire, 10, 1, 7, 0, "a");
    rec.record(1, EventKind::LockAcquire, 12, 2, 8, 0, "b");
    rec.record(0, EventKind::SharedStore, 14, 3, 5, 0, "w");
    rec.record(1, EventKind::SharedLoad, 16, 4, 5, 0, "r");
    CoverageFold fold = foldCoverage(rec);
    ASSERT_GE(fold.edges.size(), 2u);

    // Key-vector digest and edge-vector digest agree.
    std::vector<uint64_t> keys;
    for (const Edge &e : fold.edges)
        keys.push_back(e.key);
    EXPECT_EQ(coverageDigest(keys), coverageDigest(fold.edges));

    // Same trace folded twice: identical digest.
    EXPECT_EQ(coverageDigest(foldCoverage(rec).edges),
              coverageDigest(fold.edges));
}

TEST(CoverageAnnotate, EventsReachTimelineAndChromeTrace)
{
    FlightRecorder rec(256);
    rec.record(0, EventKind::SharedStore, 10, 1, 5, 0, "w.x");
    rec.record(1, EventKind::SharedLoad, 12, 2, 5, 0, "r.x");
    CoverageFold fold = foldCoverage(rec);
    ASSERT_FALSE(fold.edges.empty());
    annotateRecorder(rec, fold.edges, fold.edges.size());

    EXPECT_EQ(rec.totalOf(EventKind::CoverageNovel), fold.edges.size());
    EXPECT_EQ(rec.totalOf(EventKind::CoverageSnapshot), 1u);

    std::string timeline = obs::recoveryTimeline(rec);
    EXPECT_NE(timeline.find("coverage-novel"), std::string::npos);
    EXPECT_NE(timeline.find("coverage-snapshot"), std::string::npos);
    EXPECT_NE(timeline.find("kind=racy-pair"), std::string::npos);

    std::string chrome = obs::chromeTraceJson(rec, "annotated");
    EXPECT_NE(chrome.find("coverage-novel"), std::string::npos);
    EXPECT_NE(chrome.find("coverage-snapshot"), std::string::npos);
}

/** Coverage-grade recording (recorder + diagnosis mode) must be pure
 *  observation on every engine — the passivity contract the campaign's
 *  bare differential replicas re-prove on every schedule. */
TEST(CoveragePassivity, InstrumentedRunTickIdenticalOnAllEngines)
{
    const apps::AppSpec *spec = apps::findApp("ZSNES");
    ASSERT_NE(spec, nullptr);
    apps::HardenOptions hopts;
    hopts.applyConAir = false;
    apps::PreparedApp p = apps::prepareApp(*spec, hopts);

    for (const testutil::EngineVariant &v : testutil::kEngineVariants) {
        vm::VmConfig cfg;
        cfg.policy = vm::SchedPolicy::Pct;
        cfg.seed = 7;
        v.applyTo(cfg);
        vm::RunResult bare = apps::runUnderSchedule(p, cfg);

        obs::FlightRecorder rec(65536);
        obs::MetricsRegistry met;
        vm::VmConfig icfg = cfg;
        icfg.recorder = &rec;
        icfg.metrics = &met;
        icfg.recordSharedAccesses = true;
        vm::RunResult instrumented = apps::runUnderSchedule(p, icfg);

        EXPECT_EQ(instrumented.outcome, bare.outcome);
        EXPECT_EQ(instrumented.exitCode, bare.exitCode);
        EXPECT_EQ(instrumented.clock, bare.clock);
        EXPECT_EQ(instrumented.output, bare.output);
        EXPECT_EQ(instrumented.memDigest, bare.memDigest);
        EXPECT_EQ(instrumented.stats.steps, bare.stats.steps);
        EXPECT_EQ(instrumented.stats.schedTicks, bare.stats.schedTicks);

        // And the trace actually yields coverage (non-vacuous).
        CoverageFold fold = foldCoverage(rec);
        EXPECT_GT(fold.edges.size(), 0u) << v.name << " produced no edges";
    }
}

} // namespace
} // namespace conair
