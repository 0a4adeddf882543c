/**
 * @file
 * Run outcomes and statistics reported by the MiniVM.
 */
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile/profile.h"

namespace conair::ir {
class Instruction;
}

namespace conair::vm {

/** How a run ended. */
enum class Outcome : uint8_t {
    Success,    ///< main returned
    AssertFail, ///< assert_fail executed (Fig 5a failure)
    OracleFail, ///< oracle_fail executed (wrong-output oracle, Fig 5b)
    Segfault,   ///< invalid memory access (Fig 5c failure)
    Hang,       ///< threads deadlocked / blocked past the hang timeout
    Timeout,    ///< maxSteps exhausted
    Trap,       ///< other runtime error (div by zero, bad free, ...)
};

const char *outcomeName(Outcome o);

/** Streams outcomeName(o) — so test failures print "Segfault", not 3. */
std::ostream &operator<<(std::ostream &os, Outcome o);

/** Virtual nanoseconds per executed instruction (for µs reporting).
 *  One VM step models a handful of machine instructions. */
constexpr double kNanosPerStep = 100.0;

/** One completed failure-recovery episode (ConAir runtime), with its
 *  cost breakdown (the recovery tax of obs::prof::ProfileAgg). */
struct RecoveryEvent
{
    std::string siteTag;   ///< tag of the failure site ("assert.f.12")
    uint64_t retries = 0;  ///< rollbacks performed
    uint64_t startClock = 0;
    uint64_t endClock = 0; ///< clock when the site finally passed

    uint32_t tid = 0;      ///< recovering thread
    /** Checkpoint-to-failure distance in scheduling ticks at the
     *  episode's first rollback. */
    uint64_t ckptDistanceTicks = 0;
    /** Steps retired between rollback and the site finally passing. */
    uint64_t reexecSteps = 0;
    /** Steps discarded by the episode's rollbacks (work since the
     *  last checkpoint, summed over retries). */
    uint64_t wastedSteps = 0;
    uint64_t backoffTicks = 0; ///< virtual ticks slept between retries

    double
    micros() const
    {
        return double(endClock - startClock) * kNanosPerStep / 1000.0;
    }

    bool operator==(const RecoveryEvent &) const = default;
};

/** One chaos-injected rollback (site identity for the determinism
 *  regression test). */
struct ChaosRollbackSite
{
    uint64_t step = 0; ///< global instruction count at injection
    uint32_t tid = 0;  ///< thread that was rolled back

    bool operator==(const ChaosRollbackSite &) const = default;
};

/** Counters accumulated over one run. */
struct RunStats
{
    uint64_t steps = 0;            ///< instructions executed (all threads)
    uint64_t threadsSpawned = 0;
    uint64_t checkpointsExecuted = 0; ///< dynamic reexecution points
    uint64_t rollbacks = 0;
    uint64_t compensationFrees = 0;
    uint64_t compensationUnlocks = 0;
    uint64_t backoffs = 0;
    std::vector<RecoveryEvent> recoveries;

    /** Retired steps and waited ticks per obs::prof::Phase (indexed by
     *  the enum): the run's phase profile, which ProfileAgg::add
     *  folds.  The phases sum to steps plus the LockWait ticks plus
     *  the ticks slept in back-off. */
    std::array<uint64_t, obs::prof::kPhaseCount> phaseTicks{};

    /** Checkpoint-to-failure distance of each rollback, in scheduling
     *  ticks, on the MetricsRegistry::tickDistanceBuckets() ladder.
     *  Empty and allocation-free until the first rollback; a fixed
     *  set of buckets after it, however many rollbacks follow. */
    obs::Histogram ckptToFailureTicks;

    /// @{ Whole-program checkpoint baseline counters.
    uint64_t wpSnapshots = 0;
    uint64_t wpRecoveries = 0;
    uint64_t wpSnapshotCost = 0; ///< total ticks spent snapshotting
    /// @}

    /** Rollbacks injected by the chaos mode (idempotency testing). */
    uint64_t chaosRollbacks = 0;

    /** Scheduling-relevant events retired: stores to shared memory
     *  (global/heap segments) plus synchronisation builtins (spawn,
     *  join, lock, unlock, yield, sleep).  PCT change points and
     *  PreemptBound preemptions are sampled on this axis — racy
     *  windows open at shared writes and lock acquisitions, so a
     *  horizon counted in these events is orders of magnitude denser
     *  than one counted in raw instructions. */
    uint64_t schedTicks = 0;

    /** Where each chaos rollback struck: (global step count, thread).
     *  Chaos injection is deterministic — same seed, same sites — and
     *  the regression test pins that down with this trace. */
    std::vector<ChaosRollbackSite> chaosSites;

    /// @{ Execution-engine counters (decode layer + burst).
    /// Engine-internal: excluded from the cross-engine differential
    /// comparison, which checks semantic state only.
    uint64_t decodedInsts = 0;   ///< instruction records decoded up front
    uint64_t fastPathSteps = 0;  ///< steps retired in single-runnable bursts
    /** The memory-handle cache's hits and misses.  The cache is gone
     *  and nothing counts these; they stay (always 0) because
     *  perfbench/bench.cpp still reads them. */
    uint64_t memCacheHits = 0;
    uint64_t memCacheMisses = 0;
    uint64_t hintRulesTracked = 0; ///< fire-count slots (== configured rules)
    uint64_t fusedInsts = 0;     ///< superinstructions formed at decode time
    uint64_t fusedSteps = 0;     ///< steps retired by the fused dispatcher
    /// @}
};

/** Everything a run returns. */
struct RunResult
{
    Outcome outcome = Outcome::Success;
    int64_t exitCode = 0;
    std::string output;       ///< captured print() stream
    std::string failureMsg;   ///< human-readable failure description
    std::string failureTag;   ///< tag of the faulting instruction, if any
    uint64_t clock = 0;       ///< final virtual time
    /** Deterministic hash of the final memory image (globals, then
     *  heap blocks and stack slots in id order), hashing each cell's
     *  kind plus its kind-appropriate payload.  Part of the semantic
     *  state the cross-engine differential oracle compares. */
    uint64_t memDigest = 0;
    RunStats stats;

    /**
     * Exact-replay divergence report (VmConfig::replay, non-tolerant):
     * non-empty when the run could not follow the recorded switch list
     * — a recorded thread was not runnable at its step, or a switch
     * step was overrun.  The run ends immediately with Outcome::Trap;
     * a faithful replay always leaves this empty.  Tolerant replay
     * (ddmin candidate evaluation) never sets it.
     */
    std::string replayDivergence;

    bool ok() const { return outcome == Outcome::Success; }
};

} // namespace conair::vm
