/**
 * @file
 * The deterministic replay log (src/obs/replay/): everything needed to
 * re-execute a recorded run with the identical interleaving and verify
 * that the re-execution *is* identical.
 *
 * A repro token ("pct:d2:s199") re-runs the *search* — policy + seed —
 * so any drift in scheduler code, engine tier, or ring truncation can
 * make a "repro" silently diverge from the episode it claims to
 * reproduce.  A ReplayLog re-runs the *schedule*: the recorded
 * scheduler-switch list (the VM's only interleaving choice point, see
 * vm::ReplaySchedule) plus a snapshot of every config knob execution
 * depends on.  Replay needs no search and is O(run length).
 *
 * Three layers of faithfulness evidence ride along:
 *  - the run fingerprint (final clock, steps, schedTicks, memDigest,
 *    outcome, failure tag, exit code) — the tick/digest oracle every
 *    replay is checked against (replay_run.h);
 *  - the sync-acquisition order (LockAcquire events as
 *    (step, tid, mutex-block) triples);
 *  - a rolling digest of the shared-access value stream when the
 *    recording ran in diagnosis mode (SharedLoad/SharedStore events).
 *
 * Logs serialise to a versioned line-based text format (documented in
 * docs/OBSERVABILITY.md) that round-trips byte-identically — the
 * record → replay → re-record identity is test-pinned.
 *
 * Building a log from a FlightRecorder that wrapped is a hard error
 * carrying the drop count: a switch list with a truncated prefix would
 * replay a lie.  Replay-grade recording uses RecorderMode::Grow.
 */
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "vm/config.h"
#include "vm/stats.h"

namespace conair::obs::replay {

/** Lowercase engine name ("reference", "fused"). */
const char *engineName(vm::ExecEngine e);

/** Inverse of engineName, also reading the retired name "decoded" as
 *  Fused; returns false on an unknown name. */
bool engineFromName(const std::string &name, vm::ExecEngine &out);

/** A recorded run, self-contained enough to re-execute exactly. */
struct ReplayLog
{
    //
    // Identity (informational; replay works without them).
    //

    std::string program;       ///< kernel name the log was recorded from
    std::string scheduleToken; ///< originating search token ("" = none)
    vm::ExecEngine engine = vm::ExecEngine::Fused; ///< recorded under

    //
    // Config snapshot: every knob the execution depends on.  The
    // policy/depth knobs matter only for RNG-stream layout (per-thread
    // streams split from `seed`, PCT priority draws) — the scheduler
    // itself follows `switches`.
    //

    vm::SchedPolicy policy = vm::SchedPolicy::Random;
    uint32_t depth = 0; ///< pctDepth (Pct) / preemptBound (PreemptBound)
    uint64_t horizon = 2'000;
    uint64_t quantum = 50;
    uint64_t seed = 1;
    uint64_t appSeed = 99;
    uint64_t maxSteps = 50'000'000;
    uint64_t hangTimeout = 2'000'000;
    int64_t maxRetries = 1'000'000;
    uint64_t backoffMax = 64;
    uint64_t chaosEveryN = 0;
    uint64_t chaosMaxRollbacks = 10'000;
    std::vector<vm::DelayRule> delays;

    //
    // The recorded interleaving.
    //

    std::vector<vm::ReplaySchedule::Switch> switches;

    /** Sync-acquisition order: every LockAcquire, in record order. */
    struct LockAcq
    {
        uint64_t step;  ///< RunStats::steps at the acquisition
        uint32_t tid;   ///< acquiring thread
        uint64_t block; ///< mutex cell block id

        bool operator==(const LockAcq &) const = default;
    };
    std::vector<LockAcq> locks;

    /** Shared-access value stream (diagnosis-mode recordings only):
     *  event count and an order-sensitive FNV-1a digest over
     *  (kind, tid, packed address, value bits).  0/0 when the
     *  recording did not run in diagnosis mode. */
    uint64_t accessCount = 0;
    uint64_t accessDigest = 0;

    //
    // Run fingerprint — the faithfulness contract every replay is
    // differentially checked against (replay_run.h).
    //

    std::string outcome; ///< vm::outcomeName of the recorded outcome
    std::string failureTag;
    int64_t exitCode = 0;
    uint64_t finalClock = 0;
    uint64_t finalSteps = 0;
    uint64_t schedTicks = 0;
    uint64_t memDigest = 0;

    /** The switch list as the VM consumes it. */
    vm::ReplaySchedule schedule(bool tolerant = false) const;

    /** Reinstates the config snapshot into @p cfg.  Engine and the
     *  replay pointer are the caller's choice (cross-engine replay is
     *  the point), so they are left untouched. */
    void applyTo(vm::VmConfig &cfg) const;

    /** Versioned text form; parse() round-trips it byte-identically. */
    std::string serialize() const;

    bool operator==(const ReplayLog &) const = default;
};

/** Parses serialize() output.  Returns false with a one-line @p err
 *  (including the offending line number) on any malformed input. */
bool parseReplayLog(const std::string &text, ReplayLog &out,
                    std::string &err);

/** File convenience wrappers around serialize()/parseReplayLog(). */
bool loadReplayLog(const std::string &path, ReplayLog &out,
                   std::string &err);
bool saveReplayLog(const std::string &path, const ReplayLog &log,
                   std::string &err);

/**
 * Builds a replay-grade log from a recorded run.
 *
 * Hard-errors (returns false, one-line @p err) when:
 *  - the recorder dropped events to ring wraparound — the error names
 *    FlightRecorder::droppedAll(); a truncated switch prefix must
 *    never silently replay (record with RecorderMode::Grow);
 *  - the run used whole-program checkpointing (wpCheckpointInterval),
 *    whose reseed-and-perturb recovery is outside the replay model;
 *  - the recorded SchedSwitch steps are not strictly increasing
 *    (a corrupt or interleaved recording).
 *
 * @p cfg must be the exact configuration of the recorded run.
 */
bool buildReplayLog(const std::string &program,
                    const std::string &scheduleToken,
                    const vm::VmConfig &cfg, const FlightRecorder &rec,
                    const vm::RunResult &result, ReplayLog &out,
                    std::string &err);

/** (count, FNV-1a digest) of the SharedLoad/SharedStore stream in
 *  @p rec, in record order — the value-stream referee. */
std::pair<uint64_t, uint64_t> accessDigestOf(const FlightRecorder &rec);

} // namespace conair::obs::replay
