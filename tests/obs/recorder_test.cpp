/**
 * @file
 * FlightRecorder unit tests: ring wraparound keeps the newest events,
 * per-kind totals survive overwrites, merged() respects record order
 * and the in-place visit yields exactly its sequence, and the
 * exporters render deterministically.
 */
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "obs/trace_export.h"

namespace conair::obs {
namespace {

TEST(FlightRecorder, KeepsEverythingBelowCapacity)
{
    FlightRecorder rec(8);
    for (uint64_t i = 0; i < 5; ++i)
        rec.record(0, EventKind::Checkpoint, i * 10, i, i);
    auto evs = rec.threadEvents(0);
    ASSERT_EQ(evs.size(), 5u);
    for (uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(evs[i].seq, i);
        EXPECT_EQ(evs[i].clock, i * 10);
        EXPECT_EQ(evs[i].a, i);
    }
    EXPECT_EQ(rec.totalRecorded(0), 5u);
    EXPECT_EQ(rec.dropped(0), 0u);
}

TEST(FlightRecorder, WraparoundKeepsNewestEvents)
{
    FlightRecorder rec(4);
    for (uint64_t i = 0; i < 10; ++i)
        rec.record(0, EventKind::Rollback, i, i, i);
    auto evs = rec.threadEvents(0);
    ASSERT_EQ(evs.size(), 4u);
    // The newest 4 of 10, oldest first: seq 6, 7, 8, 9.
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(evs[i].seq, 6 + i);
    EXPECT_EQ(rec.totalRecorded(0), 10u);
    EXPECT_EQ(rec.dropped(0), 6u);
    // Per-kind totals survive the overwrites.
    EXPECT_EQ(rec.totalOf(EventKind::Rollback), 10u);
}

TEST(FlightRecorder, PerThreadRingsAreIndependent)
{
    FlightRecorder rec(2);
    rec.record(0, EventKind::Checkpoint, 1, 1);
    rec.record(3, EventKind::Rollback, 2, 2);
    EXPECT_EQ(rec.threadCount(), 4u);
    EXPECT_EQ(rec.threadEvents(0).size(), 1u);
    EXPECT_EQ(rec.threadEvents(1).size(), 0u);
    EXPECT_EQ(rec.threadEvents(3).size(), 1u);
    EXPECT_EQ(rec.threadEvents(99).size(), 0u); // out of range: empty
    EXPECT_EQ(rec.totalRecorded(99), 0u);
}

TEST(FlightRecorder, MergedIsInRecordOrderAcrossThreads)
{
    FlightRecorder rec(16);
    rec.record(1, EventKind::Checkpoint, 5, 1);
    rec.record(0, EventKind::Rollback, 6, 2);
    rec.record(1, EventKind::RecoveryDone, 7, 3);
    auto evs = rec.merged();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(evs[0].kind, EventKind::Checkpoint);
    EXPECT_EQ(evs[1].kind, EventKind::Rollback);
    EXPECT_EQ(evs[2].kind, EventKind::RecoveryDone);
    EXPECT_EQ(evs[0].seq, 0u);
    EXPECT_EQ(evs[2].seq, 2u);
}

/** What merged() returns, built independently of it: every thread's
 *  ring oldest-first, concatenated and sorted on seq. */
std::vector<TraceEvent>
sortedThreadEvents(const FlightRecorder &rec)
{
    std::vector<TraceEvent> out;
    for (uint32_t tid = 0; tid < rec.threadCount(); ++tid)
        for (TraceEvent &ev : rec.threadEvents(tid))
            out.push_back(std::move(ev));
    std::sort(out.begin(), out.end(),
              [](const TraceEvent &x, const TraceEvent &y) {
                  return x.seq < y.seq;
              });
    return out;
}

/** The in-order visit yields exactly merged()'s sequence. */
void
expectVisitIsMerged(const FlightRecorder &rec)
{
    std::vector<TraceEvent> visited;
    rec.visitMerged(
        [&visited](const TraceEvent &ev) { visited.push_back(ev); });
    const std::vector<TraceEvent> want = sortedThreadEvents(rec);
    EXPECT_EQ(visited, want);
    EXPECT_EQ(rec.merged(), want);
}

TEST(FlightRecorder, VisitMergedOnAnEmptyRecorder)
{
    FlightRecorder rec(4);
    size_t calls = 0;
    rec.visitMerged([&calls](const TraceEvent &) { ++calls; });
    EXPECT_EQ(calls, 0u);
    expectVisitIsMerged(rec);
}

TEST(FlightRecorder, VisitMergedOnOneWrappedThread)
{
    FlightRecorder rec(4);
    for (uint64_t i = 0; i < 10; ++i)
        rec.record(0, EventKind::Rollback, i, i, i);
    expectVisitIsMerged(rec);
    EXPECT_EQ(rec.merged().front().seq, 6u);
}

/** Records @p n events over @p tids in an uneven, bursty order: runs
 *  of 1 to 4 events per thread, some tags longer than the small-string
 *  buffer. */
void
recordInterleaved(FlightRecorder &rec, const std::vector<uint32_t> &tids,
                  uint64_t n)
{
    uint64_t step = 0;
    for (uint64_t i = 0; step < n; ++i) {
        const uint32_t tid = tids[(i * 7 + i / 3) % tids.size()];
        for (uint64_t k = 0; k <= i % 4 && step < n; ++k, ++step)
            rec.record(tid, EventKind(step % kEventKindCount), step * 3,
                       step, step ^ tid, tid,
                       step % 2 ? "site.tag.longer.than.sso." +
                                      std::to_string(step)
                                : std::string());
    }
}

TEST(FlightRecorder, VisitMergedAcrossRingsWrappedAtDifferentPoints)
{
    // A tiny ring: threads 0, 1, 3 and 4 each wrap at their own point;
    // thread 2 records nothing and thread 5 only once.
    FlightRecorder rec(3);
    recordInterleaved(rec, {0, 1, 3, 4, 0, 3, 0}, 60);
    // End round-robin, so the retained windows interleave.
    for (uint64_t k = 0; k < 2; ++k)
        for (uint32_t tid : {4u, 0u, 3u, 1u})
            rec.record(tid, EventKind::LockAcquire, 990 + k, 60 + k, tid);
    rec.record(5, EventKind::Checkpoint, 999, 62);
    EXPECT_EQ(rec.threadEvents(2).size(), 0u);
    std::set<uint64_t> drops;
    for (uint32_t tid : {0u, 1u, 3u, 4u}) {
        EXPECT_GT(rec.dropped(tid), 0u) << tid;
        drops.insert(rec.dropped(tid));
    }
    EXPECT_GT(drops.size(), 1u);
    expectVisitIsMerged(rec);
}

TEST(FlightRecorder, VisitMergedInGrowMode)
{
    FlightRecorder rec(2, RecorderMode::Grow);
    recordInterleaved(rec, {2, 0, 1, 2}, 50);
    EXPECT_EQ(rec.droppedAll(), 0u);
    expectVisitIsMerged(rec);
    EXPECT_EQ(rec.merged().size(), 50u);
}

TEST(FlightRecorder, VisitMergedOverThousandsOfShortRings)
{
    // A spawn-heavy run: every thread records its spawn, a third of
    // them a second event right after it, and another third a second
    // event much later, in reverse thread order.
    const uint32_t kThreads = 5000;
    FlightRecorder rec(4);
    uint64_t step = 0;
    for (uint32_t tid = 0; tid < kThreads; ++tid) {
        rec.record(tid, EventKind::ThreadSpawn, step, step, tid);
        ++step;
        if (tid % 3 == 1) {
            rec.record(tid, EventKind::LockAcquire, step, step, tid, 0,
                       "lock.site");
            ++step;
        }
    }
    for (uint32_t tid = kThreads; tid-- > 0;)
        if (tid % 3 == 2) {
            rec.record(tid, EventKind::LockAcquire, step, step, tid);
            ++step;
        }
    EXPECT_EQ(rec.threadCount(), kThreads);
    EXPECT_EQ(rec.droppedAll(), 0u);
    expectVisitIsMerged(rec);
    EXPECT_EQ(rec.merged().size(), step);
}

TEST(FlightRecorder, ClearForgetsEventsAndTotals)
{
    FlightRecorder rec(4);
    rec.record(0, EventKind::Backoff, 1, 1);
    rec.clear();
    EXPECT_EQ(rec.threadCount(), 0u);
    EXPECT_EQ(rec.totalRecordedAll(), 0u);
    EXPECT_EQ(rec.totalOf(EventKind::Backoff), 0u);
    EXPECT_EQ(rec.capacity(), 4u);
}

TEST(FlightRecorder, CapacityClampsToOne)
{
    FlightRecorder rec(0);
    EXPECT_EQ(rec.capacity(), 1u);
    rec.record(0, EventKind::Checkpoint, 1, 1);
    rec.record(0, EventKind::Rollback, 2, 2);
    auto evs = rec.threadEvents(0);
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].kind, EventKind::Rollback);
}

TEST(EventKindName, AllKindsNamed)
{
    for (size_t k = 0; k < kEventKindCount; ++k) {
        const char *name = eventKindName(EventKind(k));
        EXPECT_STRNE(name, "unknown") << k;
        EXPECT_GT(std::string(name).size(), 0u);
    }
}

TEST(TraceExport, ChromeJsonIsDeterministic)
{
    FlightRecorder rec(8);
    rec.record(0, EventKind::Checkpoint, 10, 1, 0, 3);
    rec.record(0, EventKind::Rollback, 20, 2, 1, 2, "site.a");
    rec.record(0, EventKind::RecoveryDone, 30, 3, 1, 10, "site.a");
    std::string a = chromeTraceJson(rec, "proc");
    std::string b = chromeTraceJson(rec, "proc");
    EXPECT_EQ(a, b);
    // The recovery episode renders as a duration event.
    EXPECT_NE(a.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(a.find("recovery x1"), std::string::npos);
    // Per-kind totals land in otherData.
    EXPECT_NE(a.find("\"rollback\": 1"), std::string::npos);
}

TEST(TraceExport, TimelineSkipsSchedulerNoise)
{
    FlightRecorder rec(8);
    rec.record(0, EventKind::SchedSwitch, 1, 1);
    rec.record(0, EventKind::Rollback, 2, 2, 1, 0, "s");
    std::string tl = recoveryTimeline(rec);
    EXPECT_EQ(tl.find("sched-switch"), std::string::npos);
    EXPECT_NE(tl.find("rollback"), std::string::npos);
}

TEST(TraceExport, TimelineReportsDrops)
{
    FlightRecorder rec(2);
    for (int i = 0; i < 5; ++i)
        rec.record(0, EventKind::Rollback, i, i);
    std::string tl = recoveryTimeline(rec);
    EXPECT_NE(tl.find("3 earlier events dropped"), std::string::npos);
}

} // namespace
} // namespace conair::obs
