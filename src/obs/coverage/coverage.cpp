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
    return h ? h : 1; // Edge::key is never 0
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

} // namespace conair::obs::cov
