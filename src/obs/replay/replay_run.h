/**
 * @file
 * The replay runner: re-executes a ReplayLog through any VM engine and
 * differentially checks the result against the log's fingerprint.
 *
 * This is the "ReplayScheduler" half of record-and-replay: the VM's
 * scheduler consumes the recorded switch list (vm::ReplaySchedule via
 * VmConfig::replay) with no search, no policy, and no scheduler RNG —
 * the recorded thread runs until the next recorded switch step.  Every
 * replay is refereed: the final clock, step count, scheduling ticks,
 * memory digest, outcome, failure tag, and exit code must all equal
 * the recording's, or the run is reported unfaithful with the first
 * diverging field named.  Because both engines are tick-identical by
 * construction, a log recorded under one engine replays under the
 * other (record under Fused, replay under Reference) — the cross-engine
 * differential oracle extended to recorded schedules.
 */
#pragma once

#include <string>

#include "obs/replay/replay_log.h"

namespace conair::ir {
class Module;
}

namespace conair::obs::replay {

/** One replayed run plus its faithfulness verdict. */
struct ReplayRun
{
    vm::RunResult result;

    /** The fingerprint matched the recording exactly. */
    bool faithful = false;

    /** First diverging fingerprint field ("clock 120 vs 130 recorded",
     *  a replay-divergence message, ...); empty when faithful. */
    std::string mismatch;
};

/** Optional instrumentation for a replay run. */
struct ReplayInstruments
{
    /** Re-record the replay (minimisation and the byte-identity test
     *  use this; RecorderMode::Grow recommended). */
    FlightRecorder *recorder = nullptr;

    /** Diagnosis recording mode on the replay: shared-access events
     *  are recorded and — when the log carries an access digest — the
     *  replayed value stream is checked against it. */
    bool recordSharedAccesses = false;

    /** Check the replayed LockAcquire order against the log's (needs
     *  @ref recorder). */
    bool checkLockOrder = false;
};

/**
 * Replays @p log against @p m — the same build the log was recorded
 * from — under @p engine, in strict (non-tolerant) mode, and verifies
 * the fingerprint.  @p m is executed as-is: passing a different module
 * than the recorded one is a contract violation and will surface as a
 * divergence.
 */
ReplayRun replayLog(const ir::Module &m, const ReplayLog &log,
                    vm::ExecEngine engine,
                    const ReplayInstruments *ins = nullptr);

/**
 * Replays @p log with a perturbed switch list (tolerant mode): the VM
 * skips inapplicable switches and falls back to the lowest runnable id
 * when the current thread blocks.  This is the ddmin candidate
 * evaluator — no fingerprint check, since a perturbed schedule
 * legitimately executes differently.
 */
vm::RunResult replayTolerant(
    const ir::Module &m, const ReplayLog &log,
    const std::vector<vm::ReplaySchedule::Switch> &switches,
    vm::ExecEngine engine, const ReplayInstruments *ins = nullptr);

} // namespace conair::obs::replay
