/**
 * @file
 * Coverage-guided schedule exploration (AFL-style, over interleaving
 * coverage instead of branch coverage).
 *
 * The blind campaign sprays independent (policy, seed) schedules; the
 * guided driver layered here closes the loop through the coverage maps
 * of src/obs/coverage/: every completed run is folded through
 * foldCoverage(), and a schedule whose fold contributes novel edges to
 * the per-target coverage set is *admitted to a corpus* — with its
 * change points materialised (ScheduleSpec::points), so the schedule
 * is pinned independently of the seed-sampling path and can be
 * mutated point-by-point.  The driver then splits its budget between
 * fresh seeds of the base policy and mutations of corpus entries:
 *
 *   nudge    move one change point by ±k ticks
 *   add      insert a change point drawn over the horizon (PCT depth
 *            grows with it, opening one more priority band)
 *   drop     remove one change point (entries with >= 2 points)
 *   depth    bump the PCT depth with the points unchanged (reshuffles
 *            the low-band priorities of earlier victims)
 *   policy   re-run the same points under the other systematic policy
 *            (pct <-> pb)
 *   near     insert a change point *close to* an existing one (within
 *            4x the nudge radius) — the two-window signature: bugs
 *            that need a second preemption shortly after the first
 *            (order violations published in two steps, check-then-act
 *            pairs) live in exactly this neighbourhood, which a
 *            uniform add almost never samples
 *
 * Energy is proportional to novel-edge yield, with racy-pair edges
 * weighted kRacyEnergyBoost-fold: a schedule that interleaved two
 * *conflicting* accesses (obs::cov::EdgeKind::RacyPair) is
 * failure-adjacent even when it completed correctly, so the search
 * concentrates its nudge/near mutations around such entries and walks
 * the change points into the racy window.  An entry that contributed
 * more never-seen edges is selected for mutation more often.  All
 * selection draws come from a per-round RNG seeded by the round
 * number, and batches are generated *between* worker phases from
 * corpus state folded in batch order — so the whole search, its
 * corpus, and its seeds-to-first-failure are bit-identical for any
 * worker count (pinned by tests/explore/guided_test.cpp).
 *
 * Corpora serialise to a versioned on-disk line format
 * ("conair-corpus v1") with the same strictness contract as the
 * replay log (src/obs/replay/replay_log.h): byte-identical
 * round-trips, line-numbered parse errors, refusal on version
 * mismatch — and every persisted entry replays strictly via the
 * replay substrate (pinned by the corpus tests).
 */
#pragma once

#include <iterator>
#include <string>
#include <vector>

#include "explore/campaign.h"
#include "support/rng.h"

namespace conair::explore {

/** The mutation operators, in operator-id (serialisation) order. */
enum class MutOp : uint8_t {
    Nudge,       ///< move one change point by ±k ticks
    Add,         ///< insert a change point (PCT: depth grows too)
    Drop,        ///< remove one change point (needs >= 2 points)
    DepthBump,   ///< PCT only: depth + 1, points unchanged
    CrossPolicy, ///< pct <-> pb with the same seed and points
    NearAdd,     ///< insert a point near an existing one (two-window)
};

inline constexpr size_t kMutOpCount = size_t(MutOp::NearAdd) + 1;

/** Energy weight of one novel RacyPair edge relative to an ordinary
 *  novel edge (see the file comment: racy schedules are
 *  failure-adjacent, so mutation pressure concentrates on them). */
inline constexpr uint64_t kRacyEnergyBoost = 16;

/** Stable lowercase operator name ("nudge", "add", ...). */
const char *mutOpName(MutOp op);

/** Inverse of mutOpName; false when @p name is not an operator. */
bool mutOpFromName(const std::string &name, MutOp &out);

/** One corpus entry: a schedule that contributed novel edges. */
struct CorpusEntry
{
    /** The admitted schedule, change points always materialised. */
    ScheduleSpec spec;

    /** The edge keys this schedule saw first (sorted, deduplicated
     *  per run by foldCoverage). */
    std::vector<uint64_t> novelEdges;

    /** How many of novelEdges are RacyPair edges — the
     *  failure-adjacency signal driving the energy boost. */
    uint64_t racy = 0;

    /** 1-based ordinal of the schedule in guided generation order. */
    uint64_t ordinal = 0;

    /** Operator that produced it ("fresh" for an unmutated seed). */
    std::string op = "fresh";

    /** Parent entry's token ("" for fresh seeds). */
    std::string parent;

    uint64_t energy() const
    {
        return novelEdges.size() + kRacyEnergyBoost * racy;
    }

    bool operator==(const CorpusEntry &) const = default;
};

/** The mutation corpus of one target. */
struct Corpus
{
    std::string program; ///< target name, "" until first save

    std::vector<CorpusEntry> entries;

    uint64_t totalEnergy() const;

    /** "conair-corpus v1" line format; equal corpora serialise
     *  byte-identically. */
    std::string serialize() const;

    /** FNV-1a over serialize() minus the program header — the
     *  worker-count-independence fingerprint. */
    uint64_t digest() const;
};

/** Strict parser: line-numbered errors on malformed/truncated input,
 *  duplicate fields, and version mismatch. */
bool parseCorpus(const std::string &text, Corpus &out, std::string &err);

bool loadCorpus(const std::string &path, Corpus &out, std::string &err);
bool saveCorpus(const std::string &path, const Corpus &c,
                std::string &err);

/**
 * Materialises the change points the scheduler would sample for
 * @p s at @p horizon (vm::sampleSchedPoints, which the Interp itself
 * samples with).  Specs with explicit points are returned verbatim
 * (sorted).  Running the returned points as ScheduleSpec::points
 * reproduces the original schedule tick for tick.
 */
std::vector<uint64_t> derivePoints(const ScheduleSpec &s,
                                   uint64_t horizon);

/**
 * Applies @p op to a corpus entry's schedule.  Pure function of
 * (entry, op, rng state): the same inputs always yield the same
 * mutated spec (the mutation-determinism property test pins this).
 * Points stay canonical (strictly increasing, >= 1).  Returns false
 * when the operator is inapplicable (drop with < 2 points, depth
 * bump on a PreemptBound entry).
 */
bool mutateSpec(const CorpusEntry &e, MutOp op, uint64_t horizon,
                uint64_t nudgeMax, Rng &rng, ScheduleSpec &out);

/** Guided-driver knobs (the campaign options carry the legs/oracles;
 *  these only shape the search).  The campaign runs the search through
 *  the guided stage, explore::guidedStage (explore/stages.h). */
struct GuidedOptions
{
    /** Base policy for fresh seeds (and the depth they start at). */
    vm::SchedPolicy basePolicy = vm::SchedPolicy::Pct;
    uint32_t baseDepth = 2;

    /** Total schedules the driver may run. */
    uint64_t budget = 250;

    /** Schedules generated per round (worker-phase granularity). */
    unsigned batch = 16;

    /** Nudge radius: a change point moves by 1..nudgeMax ticks. */
    uint64_t nudgeMax = 24;

    /** Stop at the first failing schedule (the seeds-to-first-failure
     *  measurement); false explores the whole budget. */
    bool stopAtFirstFailure = true;
};

static_assert(kMutOpCount == std::size(GuidedCounts{}.perOp));

/** Everything one guided search produced. */
struct GuidedResult : GuidedCounts
{
    Corpus corpus;
};

/**
 * Runs the coverage-guided search over one target.  @p opts carries
 * the campaign legs and oracles (differential, hardened, coverage is
 * forced on); @p g shapes the search.  Workers only parallelise
 * *within* a batch; everything the next batch depends on is folded in
 * batch order, so the result is independent of opts.workers.
 */
GuidedResult runGuided(const Target &t, const CampaignOptions &opts,
                       const GuidedOptions &g);

} // namespace conair::explore
