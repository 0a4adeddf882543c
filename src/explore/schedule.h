/**
 * @file
 * One point in the schedule-exploration space: a (policy, seed, depth)
 * triple, optionally pinned to explicit change points.  Specs
 * serialise to compact tokens ("pct:d3:s17", "pct:d3:s17:c120,340") so
 * a divergent schedule found by a campaign can be reproduced from one
 * command line.
 */
#pragma once

#include <string>
#include <vector>

#include "vm/config.h"

namespace conair::explore {

/** The largest depth a schedule token may carry.  The scheduler
 *  samples depth - 1 (pct) or depth (pb) change points up front, eight
 *  bytes each, so the limit caps that vector at 512 KiB; campaigns run
 *  depths 2-3, and guided search grows a depth by one per mutation and
 *  never past this limit. */
inline constexpr uint32_t kMaxScheduleDepth = 65'536;

/** A fully reproducible schedule: policy + seed + search depth. */
struct ScheduleSpec
{
    vm::SchedPolicy policy = vm::SchedPolicy::Pct;
    uint64_t seed = 1;

    /** PCT depth d (priority-change points = d-1) or the preemption
     *  bound; ignored by Random/RoundRobin. */
    uint32_t depth = 3;

    /**
     * Explicit change/preemption points (scheduling ticks, strictly
     * increasing, each >= 1).  Empty = the scheduler samples depth-1
     * (PCT) / depth (PreemptBound) points from the seed as usual.
     * Non-empty = the points are pinned verbatim
     * (VmConfig::schedPoints) while priorities still derive from the
     * seed — the representation the coverage-guided mutation engine
     * nudges (src/explore/guided.h).  Only meaningful for
     * Pct/PreemptBound.
     */
    std::vector<uint64_t> points;

    /** Writes the schedule knobs into @p cfg (policy, seed, depth,
     *  points); horizon/quantum stay as the caller set them. */
    void applyTo(vm::VmConfig &cfg) const;

    /** Compact token: "pct:d3:s17", "pb:d2:s5", "random:s9"; pinned
     *  points append a c field: "pct:d3:s17:c120,340". */
    std::string token() const;

    bool operator==(const ScheduleSpec &) const = default;
};

/**
 * Parses a token produced by ScheduleSpec::token(); returns false with
 * a one-line @p err on malformed input.  The numeric fields are parsed
 * strictly: digits only (no sign, no whitespace, no trailing junk),
 * overflow is rejected rather than silently wrapped, and d/s/c fields
 * may appear at most once — so a mistyped repro token fails loudly
 * instead of quietly exploring a different schedule.  A depth above
 * kMaxScheduleDepth is rejected, on every policy.  A c field
 * (explicit change points) must be a strictly increasing,
 * comma-separated list of ticks >= 1 and is only accepted for pct/pb.
 */
bool parseScheduleToken(const std::string &tok, ScheduleSpec &out,
                        std::string &err);

/** Error-message-free convenience overload. */
bool parseScheduleToken(const std::string &tok, ScheduleSpec &out);

/** The one-line repro command printed for a divergent schedule. */
std::string reproCommand(const std::string &app, const ScheduleSpec &s);

} // namespace conair::explore
