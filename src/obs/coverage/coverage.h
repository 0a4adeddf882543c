/**
 * @file
 * Interleaving coverage: a compact, aggregatable "what schedules has
 * the campaign actually seen" signal derived from FlightRecorder
 * traces — the substrate for coverage-guided exploration and for live
 * campaign telemetry (ROADMAP items).
 *
 * Coverage is a pure *derived view* of the trace: nothing here runs
 * inside the VM.  A run records through the already-proven-passive
 * FlightRecorder (tick-identical to a bare run), and foldCoverage()
 * turns the retained events into a set of interleaving *edges*:
 *
 *  SyncSync      consecutive sync-relevant operations (lock traffic,
 *                compensation unlocks, diagnosis-mode shared accesses)
 *                executed by *different* threads — the classic
 *                interleaving-pair signal.
 *  SwitchWindow  (last event before a scheduler switch) -> (first
 *                event after it): the preemption window the scheduler
 *                actually opened.
 *  RacyPair      (last shared store on an address by another thread)
 *                -> (this shared access): only observable in diagnosis
 *                recording mode (VmConfig::recordSharedAccesses).
 *
 * A preemption between two sync-relevant sites is one interleaving
 * fact even though both the SwitchWindow and the SyncSync fold see it;
 * foldCoverage() dedups those two kinds per run on the bare
 * (from, to) site pair (first fold to see the pair owns it), so
 * novelty counts — and the mutation energy the guided explorer
 * (src/explore/guided.h) charges from them — count each pair once.
 *
 * Each endpoint is a *site signature* — an FNV-1a hash of the event
 * kind, its stable payload word, and its site tag — so edges are
 * independent of when in the run they occurred and can be compared
 * across schedules, policies, and engines.  An edge's key is the
 * FNV-1a hash of (kind, from, to); the digest of a whole edge set is
 * the FNV-1a hash over the *sorted* keys, which makes it a set-union
 * invariant: any partition of the same schedules over any number of
 * workers produces the same digest (pinned by
 * tests/explore/campaign_test.cpp).
 *
 * Consumers keep the union of folds as a key-sorted set: the campaign
 * aggregation and the guided search per target, in matrix / batch
 * order, and the live telemetry (src/explore/telemetry.h) over the
 * whole campaign under its one mutex.  Per-schedule *novelty* (did
 * this run add any edge?) is whether its fold grew that set.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace conair {
class JsonWriter;
}

namespace conair::obs {
class FlightRecorder;
}

namespace conair::obs::cov {

/** How the two endpoint sites of an edge relate. */
enum class EdgeKind : uint8_t {
    SyncSync,     ///< sync op -> sync op across a thread change
    SwitchWindow, ///< last event before a SchedSwitch -> first after
    RacyPair,     ///< foreign shared store -> shared access, same cell
};

inline constexpr size_t kEdgeKindCount = size_t(EdgeKind::RacyPair) + 1;

/** Stable lowercase name ("sync-sync", ...). */
const char *edgeKindName(EdgeKind k);

/** One interleaving edge plus where this run discovered it. */
struct Edge
{
    uint64_t key = 0;  ///< FNV-1a of (kind, from, to); never 0
    uint64_t from = 0; ///< source site signature
    uint64_t to = 0;   ///< destination site signature
    EdgeKind kind = EdgeKind::SyncSync;

    // Discovery point within the run that folded this edge (the
    // *destination* event's position) — feeds the CoverageNovel
    // trace annotations.
    uint64_t clock = 0;
    uint64_t step = 0;
    uint32_t tid = 0;

    bool operator==(const Edge &o) const { return key == o.key; }
};

/** What foldCoverage() extracted from one run's trace. */
struct CoverageFold
{
    /** Distinct edges, sorted by key (deterministic for a fixed
     *  trace; each carries its first discovery point). */
    std::vector<Edge> edges;

    /** Distinct-edge count per EdgeKind. */
    uint64_t perKind[kEdgeKindCount] = {};
};

/** Folds a recorded run into its interleaving-edge set.  Pure
 *  function of the retained events: same trace, same fold.  A wrapped
 *  ring folds the retained suffix (still deterministic — wraparound
 *  is itself a deterministic function of the schedule). */
CoverageFold foldCoverage(const FlightRecorder &rec);

/** FNV-1a over a *sorted* key sequence: the canonical digest of an
 *  edge set.  Set-union invariant — independent of discovery order,
 *  schedule partitioning, and worker count. */
uint64_t coverageDigest(const std::vector<uint64_t> &sortedKeys);

/** Convenience: digest of a fold's (already sorted) edge list. */
uint64_t coverageDigest(const std::vector<Edge> &sortedEdges);

/** Writes a /coverage body's "digest" and "edges" members (hex hashes,
 *  one {key, kind, from, to} object per edge) into @p w's open object;
 *  callers write their own leading keys. */
void writeEdgesJson(JsonWriter &w, const std::vector<Edge> &sortedEdges);

/**
 * Appends CoverageNovel / CoverageSnapshot annotation events to
 * @p rec: one CoverageNovel per @p novel edge at its discovery
 * clock/step/tid (payload a = edge key, b = EdgeKind), then one
 * CoverageSnapshot (a = @p distinctAfter, b = novel count) at the end
 * of the trace.  Call after the run finished — annotations never
 * exist while the VM executes, so passivity is untouched.
 */
void annotateRecorder(FlightRecorder &rec,
                      const std::vector<Edge> &novel,
                      uint64_t distinctAfter);

} // namespace conair::obs::cov
