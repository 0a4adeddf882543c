#include "obs/coverage/coverage.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "obs/trace.h"
#include "support/fnv.h"
#include "support/json.h"
#include "support/str.h"

namespace conair::obs::cov {

namespace {

/**
 * A site signature identifies *where* an event happened, not when:
 * the event kind, its stable payload word (mutex cell for lock
 * traffic, packed cell address for shared accesses — never value
 * bits or clocks), and the site tag.
 */
uint64_t
siteSig(const TraceEvent &ev)
{
    uint64_t h = fnvByte(kFnvOffset, uint8_t(ev.kind));
    h = fnvWord(h, ev.a);
    for (char c : ev.tag)
        h = fnvByte(h, uint8_t(c));
    return h;
}

uint64_t
edgeKey(EdgeKind kind, uint64_t from, uint64_t to)
{
    uint64_t h = fnvByte(kFnvOffset, uint8_t(kind));
    h = fnvWord(h, from);
    h = fnvWord(h, to);
    return h ? h : 1; // 0 is the CoverageMap empty-slot sentinel
}

bool
isSchedulerNoise(EventKind k)
{
    return k == EventKind::ThreadSpawn || k == EventKind::SchedSwitch ||
           k == EventKind::SchedPoint;
}

bool
isSyncRelevant(EventKind k)
{
    switch (k) {
      case EventKind::LockAcquire:
      case EventKind::LockBlock:
      case EventKind::LockTimeout:
      case EventKind::CompensationUnlock:
      case EventKind::SharedLoad:
      case EventKind::SharedStore:
        return true;
      default:
        return false;
    }
}

} // namespace

const char *
edgeKindName(EdgeKind k)
{
    switch (k) {
      case EdgeKind::SyncSync: return "sync-sync";
      case EdgeKind::SwitchWindow: return "switch-window";
      case EdgeKind::RacyPair: return "racy-pair";
    }
    return "unknown";
}

CoverageFold
foldCoverage(const FlightRecorder &rec)
{
    CoverageFold fold;
    std::unordered_map<uint64_t, size_t> seen; // key -> edges index
    // A preemption between two sync-relevant sites shows up in *both*
    // folds: the SchedSwitch window closes on the same (from, to) site
    // pair the cross-thread sync fold records.  Two kinds mean two
    // distinct keys, so without this set one interleaving fact would
    // be charged twice — inflating novelty counts and, downstream,
    // the mutation energy the guided explorer assigns to a schedule.
    // Dedup per run on the bare (from, to) pair: whichever of the two
    // folds sees the pair first owns it (SwitchWindow, since the
    // window check runs before the sync fold).  RacyPair edges have
    // different endpoint semantics (store site on the same cell) and
    // stay separate.
    std::unordered_set<uint64_t> pairSeen;

    auto addEdge = [&](EdgeKind kind, uint64_t from, uint64_t to,
                       const TraceEvent &at) {
        if (kind == EdgeKind::SyncSync ||
            kind == EdgeKind::SwitchWindow) {
            uint64_t pair = fnvWord(fnvWord(kFnvOffset, from), to);
            if (!pairSeen.insert(pair).second)
                return;
        }
        Edge e;
        e.kind = kind;
        e.from = from;
        e.to = to;
        e.key = edgeKey(kind, from, to);
        e.clock = at.clock;
        e.step = at.step;
        e.tid = at.tid;
        auto [it, inserted] = seen.emplace(e.key, fold.edges.size());
        if (inserted) {
            fold.edges.push_back(e);
            ++fold.perKind[size_t(kind)];
        }
    };

    uint64_t lastSyncSig = 0;
    uint32_t lastSyncTid = 0;
    bool haveSync = false;

    uint64_t lastEvSig = 0;
    bool haveLastEv = false;

    uint64_t pendingSwitchFrom = 0;
    bool pendingSwitch = false;

    struct LastStore
    {
        uint32_t tid;
        uint64_t sig;
    };
    std::unordered_map<uint64_t, LastStore> lastStoreByAddr;

    rec.visitMerged([&](const TraceEvent &ev) {
        if (ev.kind == EventKind::CoverageNovel ||
            ev.kind == EventKind::CoverageSnapshot)
            return; // re-folding an annotated trace stays stable
        if (ev.kind == EventKind::SchedSwitch) {
            // The window opens at the last real event before the
            // switch and closes at the first real event after it.
            if (haveLastEv) {
                pendingSwitch = true;
                pendingSwitchFrom = lastEvSig;
            }
            return;
        }
        if (isSchedulerNoise(ev.kind))
            return;

        uint64_t sig = siteSig(ev);

        if (pendingSwitch) {
            addEdge(EdgeKind::SwitchWindow, pendingSwitchFrom, sig, ev);
            pendingSwitch = false;
        }

        if (isSyncRelevant(ev.kind)) {
            if (haveSync && lastSyncTid != ev.tid)
                addEdge(EdgeKind::SyncSync, lastSyncSig, sig, ev);
            lastSyncSig = sig;
            lastSyncTid = ev.tid;
            haveSync = true;
        }

        if (ev.kind == EventKind::SharedLoad ||
            ev.kind == EventKind::SharedStore) {
            auto it = lastStoreByAddr.find(ev.a);
            if (it != lastStoreByAddr.end() &&
                it->second.tid != ev.tid)
                addEdge(EdgeKind::RacyPair, it->second.sig, sig, ev);
            if (ev.kind == EventKind::SharedStore)
                lastStoreByAddr[ev.a] = {ev.tid, sig};
        }

        lastEvSig = sig;
        haveLastEv = true;
    });

    std::sort(fold.edges.begin(), fold.edges.end(),
              [](const Edge &x, const Edge &y) { return x.key < y.key; });
    return fold;
}

uint64_t
coverageDigest(const std::vector<uint64_t> &sortedKeys)
{
    uint64_t h = kFnvOffset;
    for (uint64_t k : sortedKeys)
        h = fnvWord(h, k);
    return h;
}

uint64_t
coverageDigest(const std::vector<Edge> &sortedEdges)
{
    uint64_t h = kFnvOffset;
    for (const Edge &e : sortedEdges)
        h = fnvWord(h, e.key);
    return h;
}

void
writeEdgesJson(JsonWriter &w, const std::vector<Edge> &sortedEdges)
{
    auto hex = [](uint64_t v) {
        return strfmt("%016llx", (unsigned long long)v);
    };
    w.key("digest").value(hex(coverageDigest(sortedEdges)));
    w.key("edges").beginArray();
    for (const Edge &e : sortedEdges) {
        w.beginObject();
        w.key("key").value(hex(e.key));
        w.key("kind").value(edgeKindName(e.kind));
        w.key("from").value(hex(e.from));
        w.key("to").value(hex(e.to));
        w.endObject();
    }
    w.endArray();
}

void
annotateRecorder(FlightRecorder &rec, const std::vector<Edge> &novel,
                 uint64_t distinctAfter)
{
    uint64_t endClock = 0, endStep = 0;
    rec.visitMerged([&](const TraceEvent &ev) {
        endClock = std::max(endClock, ev.clock);
        endStep = std::max(endStep, ev.step);
    });
    for (const Edge &e : novel)
        rec.record(e.tid, EventKind::CoverageNovel, e.clock, e.step,
                   e.key, uint64_t(e.kind));
    rec.record(0, EventKind::CoverageSnapshot, endClock, endStep,
               distinctAfter, novel.size());
}

//
// CoverageMap.
//

namespace {

/** Probe-length cap: far beyond any sane load factor, small enough
 *  that a pathologically full table degrades to counted drops instead
 *  of full-table scans. */
constexpr size_t kMaxProbe = 256;

size_t
roundUpPow2(size_t n)
{
    size_t p = 1024;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

CoverageMap::CoverageMap(size_t capacity)
{
    size_t n = roundUpPow2(capacity);
    slots_ = std::make_unique<Slot[]>(n);
    mask_ = n - 1;
}

bool
CoverageMap::insert(const Edge &e)
{
    size_t idx = size_t(e.key) & mask_;
    size_t maxProbe = std::min(kMaxProbe, mask_ + 1);
    for (size_t probe = 0; probe < maxProbe;
         ++probe, idx = (idx + 1) & mask_) {
        Slot &s = slots_[idx];
        uint64_t k = s.key.load(std::memory_order_acquire);
        if (k == e.key)
            return false;
        if (k != 0)
            continue;
        uint64_t expected = 0;
        if (s.key.compare_exchange_strong(expected, e.key,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
            s.from.store(e.from, std::memory_order_relaxed);
            s.to.store(e.to, std::memory_order_relaxed);
            // The ready word publishes the payload (and doubles as
            // the kind): snapshot() acquire-loads it before trusting
            // from/to.
            s.ready.store(uint64_t(e.kind) + 1,
                          std::memory_order_release);
            distinct_.fetch_add(1, std::memory_order_acq_rel);
            return true;
        }
        if (expected == e.key)
            return false; // another worker won the same edge
        // A different key claimed the slot under us; keep probing.
    }
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
}

uint64_t
CoverageMap::insertAll(const std::vector<Edge> &edges)
{
    uint64_t novel = 0;
    for (const Edge &e : edges)
        novel += insert(e);
    return novel;
}

std::vector<Edge>
CoverageMap::snapshot() const
{
    std::vector<Edge> out;
    for (size_t i = 0; i <= mask_; ++i) {
        const Slot &s = slots_[i];
        uint64_t ready = s.ready.load(std::memory_order_acquire);
        if (ready == 0)
            continue; // empty or claimed-but-unpublished
        Edge e;
        e.key = s.key.load(std::memory_order_relaxed);
        e.from = s.from.load(std::memory_order_relaxed);
        e.to = s.to.load(std::memory_order_relaxed);
        e.kind = EdgeKind(ready - 1);
        out.push_back(e);
    }
    std::sort(out.begin(), out.end(),
              [](const Edge &x, const Edge &y) { return x.key < y.key; });
    return out;
}

uint64_t
CoverageMap::digest() const
{
    return coverageDigest(snapshot());
}

} // namespace conair::obs::cov
