/**
 * @file
 * The schedule-exploration campaign engine.
 *
 * A campaign fans one or more compiled programs out across thousands
 * of (seed, policy, depth) schedules on a worker pool — the VM is
 * single-threaded internally, so one Interp per worker makes the
 * search embarrassingly parallel — and layers a differential recovery
 * oracle over every explored schedule:
 *
 *  1. the unhardened program must either pass cleanly or fail; every
 *     failing schedule is recorded (these are the rediscovered buggy
 *     interleavings the paper forces with injected sleeps, §5);
 *  2. the hardened program must never end in an unrecovered failure on
 *     targets marked mustRecover (ConAir's whole-campaign guarantee);
 *  3. the Fused and Reference engines must be tick-identical on the
 *     same schedule (clock, steps, outcome, output, exit code).
 *
 * The first violating (app, seed, policy) triple is reported as a
 * one-line repro command.  Campaign results are deterministic: jobs
 * are aggregated in matrix order, independent of worker timing.
 *
 * runCampaign() runs only this blind matrix.  Diagnosis, flush-on-
 * abort, the replay corpus, guided search and fix synthesis are named
 * stages over its CampaignReport that the caller runs afterwards
 * (explore/stages.h, fix/validate.h).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "explore/schedule.h"
#include "obs/coverage/coverage.h"
#include "obs/metrics.h"
#include "obs/postmortem/diagnosis.h"
#include "obs/profile/profile.h"
#include "obs/profile/profile_export.h"
#include "vm/stats.h"

namespace conair::ir {
class Module;
}

namespace conair::obs {
class FlightRecorder;
}

namespace conair::explore {

class CampaignTelemetry;

/** One program entered in a campaign (modules are borrowed and must
 *  outlive the run; they are read-only and shared across workers). */
struct Target
{
    std::string name;

    const ir::Module *plain = nullptr;    ///< unhardened build
    const ir::Module *hardened = nullptr; ///< ConAir build (null = skip)

    /** Correct-run expectations (wrong-output detection). */
    std::string expectedOutput;
    int64_t expectedExit = 0;
    bool checkOutput = true;

    /** Enforce oracle 2: every hardened schedule must end correct;
     *  any hardened failure counts as unrecovered. */
    bool mustRecover = false;

    /** PCT/PreemptBound sampling horizon in scheduling ticks (shared
     *  stores + sync ops; see calibrateHorizon). */
    uint64_t horizon = 2'000;

    /** Random-policy expected run length between switches. */
    uint64_t quantum = 50;
};

/** Campaign shape: which schedules, how many workers, which legs. */
struct CampaignOptions
{
    /** Seeds 1..N are explored per (policy, depth) entry. */
    unsigned seedsPerPolicy = 250;

    /** The policy axis of the matrix: (policy, depth) pairs. */
    std::vector<std::pair<vm::SchedPolicy, uint32_t>> policies = {
        {vm::SchedPolicy::Pct, 2},
        {vm::SchedPolicy::Pct, 3},
        {vm::SchedPolicy::PreemptBound, 2},
        {vm::SchedPolicy::Random, 0},
    };

    /** Worker threads (clamped to >= 1). */
    unsigned workers = 4;

    /** Per-run step budget; exploration schedules can livelock spin
     *  loops, so runs hitting it count as inconclusive, not failing. */
    uint64_t maxSteps = 4'000'000;

    /** Retry budget for the hardened leg: unrecoverable schedules must
     *  fall through to their original failure quickly. */
    int64_t maxRetries = 200;

    /** Run the Reference-engine replica of the unhardened leg (and of
     *  the hardened leg on chaos-free schedules). */
    bool differential = true;

    /** Hardened-leg chaos injection (VmConfig::chaosRollbackEveryN)
     *  on even seeds; 0 disables the chaos dimension. */
    uint64_t chaosEveryN = 128;

    /** Stop issuing new schedules for a target once this many failing
     *  schedules were found (0 = explore the full matrix).  Saves time
     *  in smoke runs; aggregate counters then under-report. */
    uint64_t stopAfterFailures = 0;

    /** Collect a MetricsRegistry from every hardened leg and aggregate
     *  it per (target, policy entry) into TargetReport::policyMetrics.
     *  Aggregation happens in matrix order, so the merged metrics are
     *  independent of worker count like every other report field. */
    bool collectMetrics = false;

    /**
     * Fold an interleaving-coverage edge set out of every unhardened
     * Fused leg (src/obs/coverage/): the leg runs with a private
     * FlightRecorder attached — recording is passive, and the bare
     * Reference replicas re-verify that on every schedule — and
     * the post-run fold lands in ScheduleOutcome::coverage.  Per-target
     * aggregates (distinct edges, novelty, digest, growth curve) are
     * computed in matrix order like every other report field.
     */
    bool collectCoverage = false;

    /**
     * Recovery-cost profiling (src/obs/profile/): fold every hardened
     * Fused leg's RunStats — its phase tally plus per-episode recovery
     * tax — into TargetReport::policyProfiles / TargetReport::profile,
     * in matrix order like the metrics, so identical for any worker
     * count.  Also times each leg's wall-clock span into
     * TargetReport::wall (see forEachWallSpan).
     */
    bool collectProfile = false;

    /**
     * Live telemetry sink for the embedded /metrics, /status,
     * /coverage, and /profile endpoints (src/explore/telemetry.h).
     * Borrowed, may be null.  Workers publish each finished schedule
     * into it as they go; it never feeds back into the campaign, so
     * the deterministic report is unaffected.
     */
    CampaignTelemetry *telemetry = nullptr;
};

/** Everything one explored schedule produced. */
struct ScheduleOutcome
{
    ScheduleSpec spec;
    bool ran = false;     ///< false = skipped by stopAfterFailures
    bool chaos = false;   ///< hardened leg had chaos injection on

    vm::Outcome unhardened = vm::Outcome::Success;
    bool unhardenedCorrect = false;
    bool unhardenedInconclusive = false; ///< step budget exhausted
    std::string unhardenedTag;           ///< failure tag, if any

    bool hardenedRan = false;
    vm::Outcome hardened = vm::Outcome::Success;
    bool hardenedCorrect = false;
    bool hardenedInconclusive = false;

    bool diverged = false; ///< Fused vs Reference mismatch
    std::string divergenceMsg;

    uint64_t steps = 0; ///< unhardened Fused-leg step count

    /** Full hardened-leg RunStats (zero when the leg did not run):
     *  the campaign sums its chaos rollbacks and folds its phase
     *  profile, and the `conair repro --trace` check compares EVERY
     *  per-kind event total against it. */
    vm::RunStats hardenedStats;

    /** Hardened-leg metrics (populated when opts.collectMetrics). */
    obs::MetricsRegistry metrics;

    /** Interleaving-coverage edges folded from the unhardened Fused
     *  leg's trace (populated when opts.collectCoverage): deduplicated
     *  per run, each stamped with its first discovery, sorted by key. */
    std::vector<obs::cov::Edge> coverage;

    /** hardenedStats carries a profile to fold (opts.collectProfile
     *  and the target has a hardened build). */
    bool hasProfile = false;

    /** Wall-clock leg spans in microseconds (populated when
     *  opts.collectProfile): the plain Fused leg, its differential
     *  replicas, the hardened leg, and its differential replicas;
     *  forEachWallSpan says which of them count.  Wall time is the
     *  only nondeterministic field in the outcome; everything else
     *  stays byte-identical run to run. */
    uint64_t wallUnhardenedUs = 0;
    uint64_t wallDifferentialUs = 0;
    uint64_t wallHardenedUs = 0;
    uint64_t wallHardenedDiffUs = 0;
};

/**
 * Optional observability hooks for runOneSchedule (the
 * `conair repro --trace` path).  Only the *Fused* unhardened/hardened
 * legs are instrumented; the Reference differential replicas always
 * run bare — recording is passive, so the tick-identity oracle doubles
 * as a regression test that instrumentation never perturbs execution.
 */
struct ScheduleInstruments
{
    obs::FlightRecorder *unhardened = nullptr;
    obs::FlightRecorder *hardened = nullptr;

    /** Diagnosis recording mode (VmConfig::recordSharedAccesses) on
     *  the instrumented Fused legs: SharedLoad/SharedStore events
     *  feed the postmortem racy-pair reconstruction.  The Reference
     *  replicas still run bare. */
    bool recordSharedAccesses = false;
};

/**
 * Outcome of the fix-synthesis pass over one target (src/fix/): the
 * patch synthesized from the first failing schedule's diagnosis plus
 * its automated proof obligations (minimized-replay check, full
 * campaign re-run on the patched build, clean-run overhead bound).
 * The campaign engine itself never synthesizes fixes — the fix stage
 * (fix::fixStage, src/fix/validate.h) fills this in after the other
 * stages, so the struct lives here header-only to keep conair_explore
 * free of a fix-library dependency while `kernels[].fix` still rides
 * in the TargetReport.
 */
struct FixSummary
{
    bool attempted = false;   ///< the pass ran for this target
    bool synthesized = false; ///< a verifier-clean patch was produced
    std::string strategy;     ///< "wait-for-value", "lock-guard", ...
    std::string verdict;      ///< diagnosis verdict the fix targets
    std::string variable;     ///< racing global the fix protects
    std::string mutexName;    ///< lock used/introduced ("" for waits)
    bool usedExistingMutex = false;
    uint64_t edits = 0;       ///< patch-report edit count
    std::string error;        ///< non-empty when synthesis failed

    /** Minimized-replay obligation: the kernel's .replay log no longer
     *  reproduces the failure on the patched build. */
    bool replayChecked = false;
    bool replayFailureGone = false;

    /** Campaign obligation: full matrix re-run on the patched build. */
    bool campaignRan = false;
    uint64_t patchedSchedules = 0;
    uint64_t patchedFailing = 0;
    uint64_t patchedDeadlocks = 0;
    uint64_t patchedDivergences = 0;
    uint64_t patchedInconclusive = 0;

    /** Clean-run step overhead of patched vs. baseline. */
    double overhead = 0;
    bool overheadOk = false;

    bool validated = false; ///< every obligation above passed
};

/**
 * The counters of one guided search (src/explore/guided.h): shared by
 * runGuided()'s GuidedResult and the report's GuidedSummary, so
 * campaign.h does not depend on guided.h.
 */
struct GuidedCounts
{
    uint64_t schedules = 0; ///< schedules actually run
    uint64_t freshSchedules = 0;
    uint64_t mutatedSchedules = 0;

    /** Schedules admitted to the corpus (contributed novel edges). */
    uint64_t freshNovel = 0;
    uint64_t mutationNovel = 0;

    /** Mutated schedules tried / admitted per operator, in MutOp
     *  order (nudge, add, drop, depth, policy, near). */
    uint64_t perOp[6] = {};
    uint64_t perOpNovel[6] = {};

    bool foundFailure = false;
    ScheduleSpec firstFailure;
    /** 1-based ordinal of the first failing schedule in generation
     *  order — the guided "seeds to first failure". */
    uint64_t seedsToFirstFailure = 0;
    std::string firstFailureTag;

    uint64_t distinctEdges = 0;
    uint64_t coverageDigest = 0;

    /** Oracle verdicts over the guided schedules (engine divergences
     *  and unrecovered hardened failures under mustRecover): guided
     *  runs face the same oracles as the blind matrix. */
    uint64_t divergences = 0;
    uint64_t unrecovered = 0;

    /** mutationNovel / mutatedSchedules (0 when none ran). */
    double mutationYield() const
    {
        return mutatedSchedules
                   ? double(mutationNovel) / double(mutatedSchedules)
                   : 0.0;
    }
};

/** What the guided stage reports for one target. */
struct GuidedSummary : GuidedCounts
{
    uint64_t budget = 0; ///< schedules the search was allowed

    uint64_t corpusEntries = 0;
    /** Corpus fingerprint — identical for any worker count. */
    uint64_t corpusDigest = 0;
    /** DIR/<kernel>.corpus when the stage was given a directory. */
    std::string corpusPath;

    /** The blind matrix's schedules-to-first-failure for the same
     *  target (matrix order, 1-based; 0 = the matrix found none) —
     *  the apples-to-apples budget the guided number is gated
     *  against. */
    uint64_t blindSeedsToFirstFailure = 0;

    std::string error; ///< non-empty when corpus persistence failed
};

/** Per-target aggregation. */
struct TargetReport
{
    std::string name;

    uint64_t schedules = 0; ///< schedules actually run
    uint64_t skipped = 0;

    // Oracle 1: failing schedules of the unhardened program.
    uint64_t failingSchedules = 0;
    /** Failing schedules whose unhardened outcome was Hang — the
     *  deadlock slice of failingSchedules.  The fix validator requires
     *  this to stay zero on patched builds ("no new deadlocks"). */
    uint64_t deadlockSchedules = 0;
    uint64_t inconclusive = 0;
    std::vector<std::string> failureTags; ///< distinct, sorted
    bool foundFailure = false;
    ScheduleSpec firstFailure;
    /** 1-based seed ordinal of the first failing schedule within its
     *  (policy, depth) entry — the "seed budget" the acceptance bound
     *  talks about. */
    uint64_t firstFailureSeedBudget = 0;
    /** 1-based ordinal of the first failing schedule across the whole
     *  matrix for this target (schedules actually run, in matrix
     *  order) — what the guided pass's seeds-to-first-failure is
     *  compared against. */
    uint64_t firstFailureScheduleOrdinal = 0;

    // Oracle 2: hardened recovery.
    uint64_t hardenedSchedules = 0;
    uint64_t unrecovered = 0;
    bool hasUnrecovered = false;
    ScheduleSpec firstUnrecovered;
    /** Schedules where the unhardened leg failed and the hardened leg
     *  neither recovered nor surfaced the same failure kind.  The
     *  adversarial property tests require this to stay zero; here it
     *  is informational (unrecovered already covers mustRecover). */
    uint64_t hardenedDifferentFailure = 0;
    uint64_t hardenedInconclusive = 0;
    uint64_t chaosRuns = 0;
    uint64_t chaosRollbacks = 0;

    // Oracle 3: engine differential.
    uint64_t divergences = 0;
    bool hasDivergence = false;
    ScheduleSpec firstDivergence;
    std::string firstDivergenceMsg;

    uint64_t totalSteps = 0;

    /** Per-policy-entry aggregated hardened-leg metrics (only when
     *  CampaignOptions::collectMetrics): one ("pct:d2", registry) pair
     *  per opts.policies entry, in matrix order. */
    std::vector<std::pair<std::string, obs::MetricsRegistry>>
        policyMetrics;

    /**
     * @name Recovery-cost profile (only when
     * CampaignOptions::collectProfile): hardened-leg phase ticks and
     * per-episode recovery tax, aggregated in matrix order — identical
     * for any worker count, pinned by the campaign profile test.
     * @{
     */
    bool hasProfile = false;
    /** Target-wide aggregate (sum of policyProfiles). */
    obs::prof::ProfileAgg profile;
    /** One ("pct:d2", agg) pair per opts.policies entry. */
    std::vector<std::pair<std::string, obs::prof::ProfileAgg>>
        policyProfiles;
    /** Wall-clock cost per (policy, leg), summed in matrix order.
     *  The micros are nondeterministic by nature; the cell set and
     *  span counts are not. */
    std::vector<obs::prof::WallCell> wall;
    /** @} */

    /** Postmortem diagnosis of firstFailure (filled by the diagnosis
     *  stage when foundFailure). */
    bool hasDiagnosis = false;
    obs::pm::RecoveryReport diagnosis;
    /** Which leg the diagnosis trace came from ("hardened" when the
     *  hardened build told a recovery story, else "unhardened"). */
    std::string diagnosisLeg;

    /** Files written by the flush-on-abort stage for this target. */
    std::vector<std::string> abortArtifacts;

    /**
     * @name Replay corpus (filled by the replay-corpus stage when
     * foundFailure): the ddmin-minimised replay log of firstFailure.
     * @{
     */
    bool hasReplayLog = false;
    std::string replayLogPath;            ///< DIR/<kernel>.replay
    uint64_t replayOriginalSwitches = 0;  ///< before minimisation
    uint64_t replayMinimizedSwitches = 0; ///< after minimisation
    /** The minimised log also replayed faithfully under the Reference
     *  engine (record-under-Fused, replay-under-Reference oracle). */
    bool replayCrossEngineVerified = false;
    std::string replayError; ///< non-empty when the pass failed
    /** @} */

    /**
     * @name Interleaving coverage (only when
     * CampaignOptions::collectCoverage): per-target aggregates over
     * the schedules' edge sets, computed in matrix order — identical
     * for any worker count, pinned by the campaign coverage test.
     * @{
     */
    bool hasCoverage = false;
    uint64_t coverageDistinctEdges = 0;
    /** Schedules that contributed at least one never-seen edge. */
    uint64_t coverageNovelSchedules = 0;
    /** coverageNovelSchedules / schedules (0 when no schedules ran). */
    double coverageNoveltyRate = 0;
    /** Distinct edges accumulated when the first failing schedule (in
     *  matrix order) finished; 0 when no failure was found. */
    uint64_t coverageEdgesAtFirstFailure = 0;
    /** FNV-1a over the sorted distinct edge keys — deterministic
     *  across runs and worker counts. */
    uint64_t coverageDigest = 0;
    /** (schedule#, distinctEdges) samples in matrix order, one per
     *  novel schedule (thinned by addGrowthSample). */
    std::vector<std::pair<uint64_t, uint64_t>> coverageGrowth;
    /** @} */

    /** Guided stage results. */
    bool hasGuided = false;
    GuidedSummary guided;

    /** Fix stage results (never filled by runCampaign itself — see
     *  FixSummary). */
    FixSummary fix;
};

/** Whole-campaign result. */
struct CampaignReport
{
    std::vector<TargetReport> targets;

    uint64_t schedules = 0; ///< schedules run (sum over targets)
    uint64_t vmRuns = 0;    ///< individual VM executions (all legs)
    uint64_t totalSteps = 0;
    double seconds = 0;
    double schedulesPerSec = 0;

    uint64_t divergences = 0;
    uint64_t unrecovered = 0;

    /** Human-readable per-target summary, including the one-line repro
     *  command for the first divergence / unrecovered failure. */
    std::string summary() const;
};

/** Runs the blind campaign matrix (targets x policies x seeds) and
 *  aggregates it; the post-matrix stages are the caller's to run. */
CampaignReport runCampaign(const std::vector<Target> &targets,
                           const CampaignOptions &opts);

/** Runs a single (target, schedule) cell with all its legs — the
 *  `conair repro` path for a triple printed by a campaign.  @p ins
 *  optionally attaches flight recorders to the Fused legs. */
ScheduleOutcome runOneSchedule(const Target &t, const ScheduleSpec &s,
                               const CampaignOptions &opts,
                               const ScheduleInstruments *ins = nullptr);

/** The exact VmConfig a campaign cell runs under (no observers, no
 *  chaos).  The replay-corpus stage snapshots this same config into
 *  the recorded log, so replays reconstruct the run from the log
 *  alone. */
vm::VmConfig makeBaseConfig(const Target &t, const ScheduleSpec &s,
                            const CampaignOptions &opts);

/** The "pct:d2" / "random" label of one CampaignOptions::policies
 *  entry (a schedule token without the seed part). */
std::string policyLabel(vm::SchedPolicy policy, uint32_t depth);

/** The wall-clock legs runOneSchedule times, in execution order. */
inline constexpr const char *kWallLegs[4] = {
    "unhardened", "differential", "hardened", "hardened_diff"};

/**
 * The one rule for which legs of @p o count as wall-clock spans under
 * @p opts: calls @p span(leg, micros), leg indexing kWallLegs, for the
 * plain leg, its differential replica when opts.differential is on,
 * the hardened leg when it ran, and that leg's differential replica
 * when it ran too (differential on, no chaos, no divergence).  Nothing
 * for a skipped schedule or when opts.collectProfile is off, which
 * times no leg.
 */
template <typename F>
void
forEachWallSpan(const ScheduleOutcome &o, const CampaignOptions &opts,
                F &&span)
{
    if (!opts.collectProfile || !o.ran)
        return;
    span(size_t(0), o.wallUnhardenedUs);
    if (opts.differential)
        span(size_t(1), o.wallDifferentialUs);
    if (o.hardenedRan) {
        span(size_t(2), o.wallHardenedUs);
        if (opts.differential && !o.chaos && !o.diverged)
            span(size_t(3), o.wallHardenedDiffUs);
    }
}

/** Appends the (@p schedule, @p edges) sample to a coverage growth
 *  curve.  Past 512 samples the curve is thinned by two, keeping the
 *  newest point exact, so it stays a bounded sketch however long the
 *  campaign runs. */
void addGrowthSample(std::vector<std::pair<uint64_t, uint64_t>> &curve,
                     uint64_t schedule, uint64_t edges);

/** Runs @p job(worker, i) for every i in [0, @p n) on
 *  min(@p workers, n) threads pulling indices from one atomic counter
 *  (on the calling thread, as worker 0, when that is one thread).
 *  Which worker runs which index is timing-dependent, so callers fold
 *  results by index. */
void runPool(size_t n, unsigned workers,
             const std::function<void(unsigned worker, size_t i)> &job);

/** Measures a clean RoundRobin run of @p m and returns its scheduling
 *  tick count (shared stores + sync ops, RunStats::schedTicks) — the
 *  natural PCT/PreemptBound sampling horizon for that program. */
uint64_t calibrateHorizon(const ir::Module &m, uint64_t maxSteps);

} // namespace conair::explore
