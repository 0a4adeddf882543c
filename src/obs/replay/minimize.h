/**
 * @file
 * Replay-based ddmin minimisation of failing schedules.
 *
 * A recorded failure often carries hundreds of scheduler switches of
 * which only a handful matter (typically the one preemption inside the
 * buggy window).  minimizeReplayLog() shrinks the switch list with
 * delta debugging: candidate subsets are evaluated by *tolerant*
 * replay (inapplicable switches are skipped, a blocked thread falls
 * back to the lowest runnable id), and a candidate survives when the
 * recorded failure — outcome + failure tag, and optionally the
 * postmortem diagnosis verdict — is preserved.
 *
 * Because a tolerant replay of a reduced switch list is itself a fully
 * deterministic run, the minimised schedule is then *re-recorded*
 * (RecorderMode::Grow) into a fresh exact ReplayLog with its own
 * fingerprint, and that log is verified by one strict replay before it
 * is returned.  The output therefore carries the same faithfulness
 * contract as any recording — `conair replay` on a minimised
 * log is still an O(1), differentially-checked repro.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/replay/replay_run.h"

namespace conair::obs::replay {

/** Knobs for minimizeReplayLog(). */
struct MinimizeOptions
{
    /** Engine used for candidate evaluation, re-recording, and the
     *  final strict verification. */
    vm::ExecEngine engine = vm::ExecEngine::Fused;

    /** Additionally require the postmortem diagnosis verdict
     *  (obs::pm::RecoveryReport::primary) to survive minimisation.
     *  Costs a diagnosis-mode replay per candidate. */
    bool preserveVerdict = false;

    /** Safety valve on tolerant-replay probes (0 = unlimited). */
    uint64_t maxProbes = 0;
};

/** The minimisation result. */
struct MinimizeResult
{
    bool ok = false;
    std::string err; ///< one-line reason when !ok

    /** Re-recorded exact log of the minimised schedule (strictly
     *  verified); valid only when ok. */
    ReplayLog minimized;

    size_t originalSwitches = 0;
    size_t minimizedSwitches = 0;
    uint64_t probes = 0; ///< tolerant replays evaluated

    /** Diagnosis verdict preserved across minimisation ("" when
     *  verdict preservation was off or no verdict was diagnosed). */
    std::string verdict;
};

/**
 * ddmin over @p log's switch list.  @p m must be the module the log
 * was recorded from.  Fails (ok = false) when the baseline tolerant
 * replay of the full switch list does not reproduce the recorded
 * outcome + failure tag — a minimisation of a non-reproducing log
 * would shrink towards noise.
 */
MinimizeResult minimizeReplayLog(const ir::Module &m,
                                 const ReplayLog &log,
                                 const MinimizeOptions &opts = {});

/** A run recorded replay-grade (Grow recorder, diagnosis mode): what
 *  buildReplayLog() consumes. */
struct RecordedRun
{
    vm::VmConfig config; ///< the run's config, observers detached
    std::unique_ptr<FlightRecorder> recorder;
    vm::RunResult result;
};

/** Runs @p m under @p cfg, recorded replay-grade. */
RecordedRun recordRun(const ir::Module &m, const vm::VmConfig &cfg);

/** A recorded run's replay log, before and after ddmin. */
struct MinimizedLog
{
    ReplayLog recorded;
    MinimizeResult ddmin; ///< ok == false when it failed or was skipped

    /** The minimised log, else the recorded one. */
    const ReplayLog &best() const
    {
        return ddmin.ok ? ddmin.minimized : recorded;
    }
};

/** Builds @p run's replay log and ddmin-minimises it with @p opts
 *  (null skips ddmin).  False with @p err when no log can be built. */
bool minimizeRecordedRun(const ir::Module &m, const RecordedRun &run,
                         const std::string &program,
                         const std::string &token,
                         const MinimizeOptions *opts, MinimizedLog &out,
                         std::string &err);

} // namespace conair::obs::replay
