/**
 * @file
 * Exporters for the recovery-cost profiler: speedscope JSON, folded
 * flamegraph stacks, and the top-N hot-phase table the CLIs print
 * (docs/OBSERVABILITY.md, "Profiling").
 *
 * A ProfileDoc carries both profiler axes:
 *
 *  - *phaseGroups*: the deterministic per-run phase/episode aggregates,
 *    one labelled group per (kernel, policy) — or a single group for a
 *    one-shot run.  Rendering is byte-deterministic (pinned by
 *    tests/obs/profile_golden_test.cpp), so these goldens double as
 *    regression tests of the whole attribution pipeline.
 *
 *  - *wall*: the campaign's wall-clock self-time cells, per
 *    (kernel, policy, leg), folded in matrix order from per-worker
 *    spans.  Values are measured microseconds — present in exports but
 *    never in goldens.
 *
 * Speedscope output is one file with up to two "sampled" profiles:
 * "phases (virtual ticks)" weights each (group, phase) stack by its
 * attributed ticks, and "campaign wall clock" weights each
 * (kernel, policy, leg) stack by its summed span microseconds.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/profile/profile.h"

namespace conair::obs::prof {

/** One wall-clock self-time cell of a campaign. */
struct WallCell
{
    std::string kernel;
    std::string policy;
    std::string leg; ///< "unhardened", "hardened", "differential", ...
    uint64_t micros = 0;
    uint64_t spans = 0; ///< spans folded into this cell

    bool operator==(const WallCell &) const = default;
};

/** Everything the exporters render. */
struct ProfileDoc
{
    /** Deterministic axis: labelled phase/episode aggregates, in
     *  matrix (or insertion) order. */
    std::vector<std::pair<std::string, ProfileAgg>> phaseGroups;

    /** Wall-clock axis cells (may be empty for one-shot runs). */
    std::vector<WallCell> wall;
};

/** Speedscope JSON (https://www.speedscope.app/file-format-schema.json)
 *  named @p name.  Deterministic given the doc contents. */
std::string speedscopeJson(const ProfileDoc &doc,
                           const std::string &name);

/** Folded flamegraph stacks ("group;phase weight" lines, plus
 *  "wall;kernel;policy;leg micros" lines), flamegraph.pl-compatible. */
std::string foldedStacks(const ProfileDoc &doc);

/** Human-readable top-@p topN hot-phase table over all groups, with
 *  the recovery-tax summary underneath. */
std::string hotPhaseTable(const ProfileDoc &doc, size_t topN = 8);

/** The --profile FILE artifacts every CLI writes: speedscopeJson() to
 *  @p path and foldedStacks() next to it (@p path with a .folded
 *  extension), each announced on @p log as writeFile() does.  False
 *  when either file cannot be written. */
bool writeProfileArtifacts(const ProfileDoc &doc, const std::string &name,
                           const std::string &path, std::FILE *log);

} // namespace conair::obs::prof
