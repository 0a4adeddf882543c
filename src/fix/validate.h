/**
 * @file
 * Automated patch validation: proves a synthesized fix eliminated the
 * diagnosed failure *and* broke nothing else, with no human in the
 * loop.  Three obligations:
 *
 *  1. *Replay check*: the kernel's ddmin-minimized failing schedule
 *     (replay-logs/<kernel>.replay) is replayed tolerantly against the
 *     patched build — the patch changed the instruction stream, so the
 *     recorded switch list is applied best-effort — and the run must
 *     now end correct.  This is the "the exact buggy interleaving no
 *     longer fires" proof.
 *  2. *Campaign check*: the full exploration matrix re-runs on the
 *     patched build with the differential oracles on — 0 failing
 *     schedules, 0 deadlock schedules, 0 cross-engine divergences.
 *     This is the "no failure anywhere, no new bug introduced" proof.
 *  3. *Overhead check*: a clean run of the patched build must succeed
 *     and execute at most maxOverhead times the baseline's steps — a
 *     fix that trades the bug for a livelock (a wait loop that never
 *     satisfies, a lock convoy) blows this bound.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "explore/campaign.h"
#include "obs/replay/replay_log.h"

namespace conair::fix {

/** Validation knobs. */
struct ValidationOptions
{
    /** Campaign shape for obligation 2 (seeds, policies, workers).
     *  Differential legs are forced on; stopAfterFailures and metrics
     *  are forced off.  runCampaign runs no stage, so the validation
     *  campaign never diagnoses, persists or searches anything. */
    explore::CampaignOptions campaign;

    /** Clean-run configuration of the kernel (AppSpec::cleanConfig)
     *  for obligation 3. */
    vm::VmConfig cleanConfig;

    /** Patched/baseline clean-run step ratio ceiling. */
    double maxOverhead = 1.3;
};

/** Everything the validator measured. */
struct ValidationResult
{
    // Obligation 1 (skipped when no log was provided).
    bool replayChecked = false;
    bool replayFailureGone = false;
    std::string replayDetail; ///< outcome summary of the patched replay

    // Obligation 2.
    bool campaignRan = false;
    uint64_t schedules = 0;
    uint64_t failing = 0;
    uint64_t deadlocks = 0;
    uint64_t divergences = 0;
    uint64_t inconclusive = 0;

    // Obligation 3.
    bool overheadChecked = false;
    double overhead = 0;
    bool overheadOk = false;

    std::string error; ///< first hard failure ("" when none)

    /** All attempted obligations passed. */
    bool
    ok() const
    {
        return error.empty() && (!replayChecked || replayFailureGone) &&
               campaignRan && failing == 0 && deadlocks == 0 &&
               divergences == 0 && overheadChecked && overheadOk;
    }
};

/**
 * Validates @p patched against @p baseline — the campaign target of the
 * *unpatched* kernel, whose expectations (output, exit) the patched
 * build must still meet.  @p minimizedLog is the kernel's minimized
 * failing-schedule replay log (null skips obligation 1; it was
 * recorded from baseline.plain, not the patched build).
 */
ValidationResult validatePatch(const ir::Module &patched,
                               const explore::Target &baseline,
                               const obs::replay::ReplayLog *minimizedLog,
                               const ValidationOptions &opts);

/** The campaign fix stage (explore/stages.h): synthesizes a patch
 *  from each diagnosed first failure and validates it with @p opts,
 *  the replay-corpus stage's log and @p cleanConfigs[i].  Fills
 *  TargetReport::fix; returns the patch reports in target order. */
std::string fixStage(const std::vector<explore::Target> &targets,
                     const std::vector<vm::VmConfig> &cleanConfigs,
                     const ValidationOptions &opts,
                     explore::CampaignReport &rep);

} // namespace conair::fix
