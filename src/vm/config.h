/**
 * @file
 * MiniVM run configuration: scheduling policy, interleaving forcing,
 * resource limits, and ConAir runtime knobs.
 */
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace conair::obs {
class FlightRecorder;
class MetricsRegistry;
}

namespace conair::obs::prof {
struct ProfileAgg;
}

namespace conair::vm {

/** Thread scheduling policies. */
enum class SchedPolicy {
    RoundRobin,   ///< fixed quantum, cycle through runnable threads
    Random,       ///< seeded random switches (production-like jitter)
    Pct,          ///< probabilistic concurrency testing (see below)
    PreemptBound, ///< preemption-bounded search (see below)
};

const char *schedPolicyName(SchedPolicy p);

/** Inverse of schedPolicyName ("rr", "random", "pct", "pb"); returns
 *  false when @p name is not a policy name. */
bool schedPolicyFromName(const std::string &name, SchedPolicy &out);

/**
 * The change points a Pct / PreemptBound run samples from its seed
 * (VmConfig::schedPoints empty): PCT depth @p depth gives depth - 1
 * points, PreemptBound @p depth points, each drawn in [1, horizon]
 * from a stream split off @p seed; sorted.  Empty for the other
 * policies.  The guided explorer materialises a seed's points with it.
 */
std::vector<uint64_t> sampleSchedPoints(SchedPolicy policy, uint64_t seed,
                                        uint64_t depth, uint64_t horizon);

/**
 * Bytes one run may hold for its guest: globals, every heap block
 * (freed blocks keep their cells), and every live frame with its
 * register file and stack slots; each block, slot and frame counts
 * its record as well as its cells, so even empty ones add up.
 * Crossing it ends the run with Outcome::Trap, identically on every
 * engine, instead of exhausting the host.  Campaigns run one VM per
 * worker, and an unbounded recursion that reaches the limit costs the
 * host about 1.5x the budget (3x under AddressSanitizer).  A 100,000-
 * deep recursion of a small function needs about 25 MB; one
 * ir::kMaxBlockCells block (about 640 MiB) traps when it is
 * allocated.
 */
inline constexpr uint64_t kGuestMemoryBytes = uint64_t(64) << 20;

/**
 * Which execution engine interprets the program.  Both are
 * deterministic and produce tick-for-tick identical runs (enforced by
 * tests/vm/decode_diff_test.cpp and the cross-engine differential
 * fuzzer in tests/property/).  Fused is the production engine: it
 * pre-decodes every function into flat arrays (decode.h), layers
 * decode-time superinstruction fusion on top (fuse.h), and bursts
 * through a dense-dispatch executor (docs/VM_ENGINE.md).  Reference
 * walks the IR tree and exists as the differential-testing referee.
 */
enum class ExecEngine : uint8_t {
    Reference, ///< original IR tree walk (hash per operand resolve)
    Fused,     ///< pre-decoded arrays + superinstructions, default
};

/**
 * Forces a buggy interleaving: when a thread executes `hint(id)` in
 * MiniC (a SchedHint instruction), it sleeps for @ref delayTicks of
 * virtual time, letting other threads overtake it.  This is the
 * deterministic analogue of the paper's "insert sleeps into buggy code
 * regions" methodology (§5).
 */
struct DelayRule
{
    uint64_t hintId;
    uint64_t delayTicks;

    /**
     * How many times the delay fires before becoming inert; 0 means
     * every execution.  Setting 1 models a *transient* timing anomaly:
     * whole-program rollback baselines escape the bug on reexecution
     * because the anomaly does not repeat (fire counts deliberately
     * survive their rollbacks).
     */
    uint64_t maxFires = 0;

    bool operator==(const DelayRule &) const = default;
};

/**
 * A recorded thread interleaving the scheduler reproduces verbatim.
 *
 * Replay rests on one structural fact: pickThread() is the VM's only
 * interleaving choice point.  Everything else that varies between runs
 * — per-thread decision RNG streams, the app-visible rand(), sleep and
 * wake timing, PCT priorities — is a deterministic function of the
 * seeds plus the order threads execute in.  So a run is pinned exactly
 * by the sequence of scheduler switches: (global step count, thread
 * chosen).  The interpreter consumes this list instead of consulting a
 * policy: no quantum expiry, no scheduling-point sampling, no scheduler
 * RNG draws — the recorded thread runs until the next recorded switch
 * step.
 *
 * The obs/replay subsystem (ReplayLog) records, serialises, minimises
 * and verifies these schedules; this struct is just the part the VM
 * consumes, kept here so the VM does not depend on the log format.
 */
struct ReplaySchedule
{
    struct Switch
    {
        uint64_t step; ///< RunStats::steps at the scheduling decision
        uint32_t tid;  ///< thread handed the CPU

        bool operator==(const Switch &) const = default;
    };

    /** Switch list in execution order; steps strictly increase. */
    std::vector<Switch> switches;

    /**
     * Tolerant mode: a switch that is inapplicable at its recorded
     * step (the named thread does not exist or is not runnable) is
     * skipped, and when the current thread cannot continue the lowest
     * runnable id runs — instead of declaring divergence.  ddmin
     * minimisation evaluates candidate subsets this way, since
     * removing switches legitimately changes the downstream execution.
     * Exact replay (the repro path) leaves this false: any divergence
     * hard-fails the run with RunResult::replayDivergence set.
     */
    bool tolerant = false;
};

/** All the knobs for one VM run. */
struct VmConfig
{
    SchedPolicy policy = SchedPolicy::Random;
    uint64_t seed = 1;

    /** Execution engine (see ExecEngine). */
    ExecEngine engine = ExecEngine::Fused;

    /**
     * Scheduler fast path: when exactly one thread is runnable and no
     * sleeper can become due, execute the rest of the quantum in a
     * burst without re-consulting the scheduler.  Charges the same
     * clock ticks and RNG draws as stepwise scheduling, so seeded
     * interleavings are unchanged.  Turning it off steps every
     * instruction through the scheduler loop — the engine tests use
     * that to exercise the fused engine's per-instruction handlers
     * without the superinstruction burst.
     */
    bool schedFastPath = true;

    /** Preemption quantum for RoundRobin / expected run length for
     *  Random (instructions between involuntary switches). */
    uint64_t quantum = 50;

    /**
     * @name Systematic schedule exploration (PCT / preemption bounding)
     *
     * SchedPolicy::Pct implements probabilistic concurrency testing
     * (Burckhardt et al., ASPLOS 2010): every thread gets a random
     * priority above @ref pctDepth at creation, the scheduler always
     * runs the highest-priority runnable thread, and `pctDepth - 1`
     * priority-change points are sampled at seeded *scheduling tick*
     * counts in [1, pctHorizon]; when the global tick count crosses
     * point i, the running thread's priority drops into the low band
     * (`pctDepth - 2 - i`), forcing a context switch exactly there.
     * A scheduling tick is a shared-memory store or a synchronisation
     * builtin (RunStats::schedTicks) — the only places a racy window
     * can open — so the horizon k stays small and for a bug of depth
     * d each run finds it with probability >= 1/(n * k^(d-1)): a few
     * thousand seeds reliably hit the ordering-sensitive windows the
     * hand-scripted delay rules force.
     *
     * SchedPolicy::PreemptBound is the bounded-preemption variant:
     * cooperative scheduling (threads run until they block, finish, or
     * yield) except for @ref preemptBound forced switches at seeded
     * tick counts in the same horizon.
     *
     * Both are fully deterministic given (seed, depth/bound, horizon):
     * same inputs, same interleaving, tick for tick.
     * @{
     */

    /** PCT depth d: 1 + number of priority-change points. */
    uint64_t pctDepth = 3;

    /** Horizon k: change/preemption points are drawn uniformly from
     *  [1, pctHorizon] scheduling ticks (shared stores + sync ops).
     *  Should approximate the program's clean-run schedTicks count
     *  (campaigns calibrate it with calibrateHorizon). */
    uint64_t pctHorizon = 2'000;

    /** Forced preemptions for SchedPolicy::PreemptBound. */
    uint64_t preemptBound = 2;

    /**
     * Explicit change/preemption points (scheduling-tick counts) for
     * Pct/PreemptBound: when non-empty, the scheduler uses exactly
     * these points instead of sampling them from the seed.  Thread
     * priorities and per-thread decision streams still derive from
     * @ref seed, so (seed, points) pins the schedule completely — the
     * coverage-guided explorer mutates this list while keeping the
     * rest of a corpus schedule fixed (src/explore/guided.h).  The
     * list need not be sorted or duplicate-free; the scheduler sorts
     * a copy and consumes colliding points together, exactly like the
     * sampled path.
     */
    std::vector<uint64_t> schedPoints;

    /** @} */

    /** Interleaving forcing (empty = natural scheduling). */
    std::vector<DelayRule> delays;

    /** Abort the run after this many executed instructions. */
    uint64_t maxSteps = 50'000'000;

    /** Hang detector: a blocked lock waits at most this long before the
     *  VM declares the run hung (plain mutex_lock has no timeout; this
     *  bound exists so benchmark runs terminate). */
    uint64_t hangTimeout = 2'000'000;

    /**
     * ConAir runtime: retry budget per thread (paper default is one
     * million; benches lower it so unrecoverable sites fail fast).
     */
    int64_t maxRetries = 1'000'000;

    /** ConAir runtime: upper bound of the random deadlock back-off. */
    uint64_t backoffMax = 64;

    /** Seed for the application-visible rand() builtin. */
    uint64_t appSeed = 99;

    /**
     * @name Whole-program checkpoint/rollback baseline
     *
     * Models the traditional recovery systems ConAir is compared
     * against (Rx/ASSURE-style, paper §1 and §7): periodic snapshots of
     * the *entire* program state (all threads + memory), multi-threaded
     * rollback on failure, and a perturbed schedule on reexecution.
     * The snapshot cost is charged to virtual time proportionally to
     * the state size — the overhead ConAir avoids by design.
     * @{
     */

    /** Steps between whole-program snapshots; 0 disables the mode. */
    uint64_t wpCheckpointInterval = 0;

    /** Rollback attempts before the failure is allowed through. */
    unsigned wpMaxRecoveries = 8;

    /** Virtual ticks charged per snapshotted memory cell. */
    double wpSnapshotCostPerCell = 0.25;

    /** @} */

    /**
     * @name Chaos rollback injection (idempotency validation)
     *
     * When enabled, the VM randomly rolls a thread back to its most
     * recent ConAir checkpoint whenever the thread is inside a *clean*
     * window (no idempotency-destroying instruction executed since the
     * checkpoint).  §2.2's correctness argument says such rollbacks
     * can never change program semantics; the property tests run every
     * hardened application under chaos and require bit-identical
     * results.
     * @{
     */

    /** Expected instructions between injected rollbacks; 0 disables. */
    uint64_t chaosRollbackEveryN = 0;

    /** Upper bound on injected rollbacks (termination guarantee). */
    uint64_t chaosMaxRollbacks = 10'000;

    /** @} */

    /**
     * @name Observability (src/obs/)
     *
     * The one hook (recorder) is pure observation: recording never
     * perturbs the schedule, RNG streams, clock, or stats, so an
     * instrumented run is tick-for-tick identical to an uninstrumented
     * one (pinned by tests/obs/vm_trace_test.cpp).  nullptr (the
     * default) disables it; the disabled path is a branch on the
     * pointer with no allocation.  The two sinks (metrics, profiler)
     * are no hooks at all: run() folds the finished RunStats into them
     * as it returns.  No pointer here is owned by the VM.
     * @{
     */

    /** Flight recorder receiving typed trace events (scheduler
     *  decisions, checkpoints, rollbacks, lock traffic, ...). */
    obs::FlightRecorder *recorder = nullptr;

    /** Registry that run() folds the finished RunStats into as it
     *  returns (MetricsRegistry::addRun); nothing fires mid-run. */
    obs::MetricsRegistry *metrics = nullptr;

    /** Profile that run() folds the finished RunStats into as it
     *  returns (ProfileAgg::add): its phase tally and recovery tax,
     *  which every run keeps anyway (src/obs/profile/). */
    obs::prof::ProfileAgg *profiler = nullptr;

    /**
     * Diagnosis recording mode: additionally record a SharedLoad /
     * SharedStore event (packed cell address + value bits + site tag)
     * for every non-stack memory access, in both engines.  Needs
     * @ref recorder set; still pure observation (tick-identical runs),
     * but the event volume is ~1 per scheduling tick, so it is off by
     * default and enabled only when a trace will feed the postmortem
     * diagnosis engine (src/obs/postmortem/).
     */
    bool recordSharedAccesses = false;

    /** @} */

    /**
     * Deterministic replay (src/obs/replay/): when set, the scheduler
     * ignores @ref policy / @ref quantum / the exploration knobs and
     * drives the run through the recorded switch list instead — no
     * search, no scheduler RNG draws.  The pointed-to schedule is
     * borrowed and must outlive the run.  See ReplaySchedule for the
     * sufficiency argument and docs/OBSERVABILITY.md for the
     * faithfulness contract.
     */
    const ReplaySchedule *replay = nullptr;
};

} // namespace conair::vm
