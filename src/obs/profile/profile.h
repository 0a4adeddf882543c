/**
 * @file
 * The deterministic recovery-cost profiler (docs/OBSERVABILITY.md,
 * "Profiling").
 *
 * A PhaseProfiler attaches to a run through VmConfig::profiler under
 * the same passivity contract as the flight recorder: nullptr (the
 * default) disables it, every hook site is one branch on the pointer,
 * and an instrumented run is tick- and memDigest-identical to a bare
 * one on both engines (pinned by tests/obs/vm_profile_test.cpp).
 * All mutable profiler state lives inside this object — the VM never
 * grows per-thread fields for it — so passivity holds by construction.
 *
 * Two things are attributed:
 *
 *  1. *Phases.*  Every retired step is classified by the instruction
 *     about to execute (classifyPhase): plain dispatch, memory
 *     traffic, synchronisation builtins, checkpoint saves, rollback
 *     attempts, retry back-off.  Steps retired while a thread is
 *     inside an open recovery episode are re-execution work and land
 *     in Phase::Reexec instead (except the recovery machinery's own
 *     steps, which keep their class).  Two phases count *waiting*
 *     virtual ticks rather than steps: LockWait (block-to-grant time
 *     of contended locks) and Backoff (virtual sleep ticks).
 *
 *  2. *Recovery tax.*  Per recovery episode — first rollback at a
 *     failure site to the CaRecovered on its success path — the
 *     profiler rolls up the checkpoint distance (scheduling ticks from
 *     the checkpoint to the failure), the steps re-executed to reach
 *     the resume point, the work discarded by each rollback ("wasted"
 *     steps since the last checkpoint), and the back-off ticks slept,
 *     joined with the episode's failure-site tag.
 *
 * The per-run data folds into a ProfileAgg; the campaign engine merges
 * those per (kernel, policy) in matrix order, so aggregated profiles
 * are independent of worker count (tests/explore/campaign_test.cpp).
 */
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/builtins.h"
#include "ir/instruction.h"

namespace conair {
class JsonWriter;
}

namespace conair::obs::prof {

/** Where a retired step (or waited tick) is attributed. */
enum class Phase : uint8_t {
    Dispatch,       ///< plain compute/control dispatch
    Memory,         ///< loads, stores, malloc/free
    Sync,           ///< thread/mutex/yield/sleep builtins
    LockWait,       ///< ticks blocked on a contended mutex (waits)
    CheckpointSave, ///< CaCheckpoint[Locals] steps + locals-save cost
    Rollback,       ///< CaTryRollback steps (the longjmp machinery)
    Reexec,         ///< re-execution inside an open recovery episode
    Backoff,        ///< virtual ticks slept in retry back-off (waits)
};

constexpr size_t kPhaseCount = 8;

/** Stable lowercase phase name ("dispatch", "lock_wait", ...). */
const char *phaseName(Phase p);

/** Classifies the instruction about to execute.  Engine-independent:
 *  both the reference walker and the fused engine carry the
 *  same (opcode, builtin) pair.  CaRecovered steps are refunded by the
 *  VM and must not be attributed at all — callers skip them. */
Phase classifyPhase(ir::Opcode op, ir::Builtin builtin);

/** One completed recovery episode's cost breakdown. */
struct EpisodeCost
{
    std::string siteTag;   ///< failure-site tag ("assert.f.12")
    uint32_t tid = 0;      ///< recovering thread
    uint64_t retries = 0;  ///< rollbacks performed
    /** Checkpoint-to-failure distance in scheduling ticks at the
     *  episode's first rollback. */
    uint64_t ckptDistanceTicks = 0;
    /** Steps retired between rollback and the site finally passing. */
    uint64_t reexecSteps = 0;
    /** Steps discarded by the episode's rollbacks (work since the
     *  last checkpoint, summed over retries). */
    uint64_t wastedSteps = 0;
    uint64_t backoffTicks = 0; ///< virtual ticks slept between retries
    uint64_t startClock = 0;
    uint64_t endClock = 0;

    bool operator==(const EpisodeCost &) const = default;
};

/**
 * The per-run profiler the VM's hooks feed.  Deterministic: a given
 * (program, VmConfig) run produces bit-identical profiler contents on
 * every execution.
 */
class PhaseProfiler
{
  public:
    /// @{ Hot hooks (called by the interpreter, one branch per site).
    void onStep(uint32_t tid, Phase p);
    void onSteps(uint32_t tid, Phase p, uint64_t n);
    /** Waiting ticks not tied to a retired step (LockWait). */
    void onWait(Phase p, uint64_t ticks);
    /// @}

    /// @{ Recovery lifecycle hooks.
    void onCheckpoint(uint32_t tid);
    /** One rollback at @p tid's failure site; opens the episode on the
     *  first retry.  @p ckptDistanceTicks is schedTicks from the live
     *  checkpoint to this failure. */
    void onRollback(uint32_t tid, const std::string &siteTag,
                    uint64_t ckptDistanceTicks);
    /** Back-off sleep of @p ticks; booked globally and into the open
     *  episode, if any. */
    void onBackoff(uint32_t tid, uint64_t ticks);
    /** The failure site finally passed: closes the episode. */
    void onRecovered(uint32_t tid, uint64_t retries,
                     uint64_t startClock, uint64_t endClock);
    /// @}

    uint64_t phaseTicks(Phase p) const
    {
        return ticks_[size_t(p)];
    }
    /** Sum over all phases (steps + waited ticks). */
    uint64_t totalTicks() const;
    const std::vector<EpisodeCost> &episodes() const
    {
        return episodes_;
    }

    bool empty() const;
    void clear();

  private:
    struct ThreadState
    {
        bool episodeActive = false;
        std::string siteTag;
        uint64_t retries = 0;
        uint64_t ckptDistanceTicks = 0;
        uint64_t reexecSteps = 0;
        uint64_t wastedSteps = 0;
        uint64_t backoffTicks = 0;
        uint64_t stepsSinceCkpt = 0;
    };

    ThreadState &thread(uint32_t tid);

    std::array<uint64_t, kPhaseCount> ticks_{};
    std::vector<ThreadState> threads_;
    std::vector<EpisodeCost> episodes_;
};

/**
 * A mergeable profile aggregate: phase totals plus the recovery-tax
 * rollup.  ScheduleOutcome carries one per profiled schedule; the
 * campaign folds them per (kernel, policy) in matrix order.
 */
struct ProfileAgg
{
    uint64_t ticks[kPhaseCount] = {};
    uint64_t runs = 0; ///< profiled runs folded in

    /// @{ Recovery tax.
    uint64_t episodes = 0;
    uint64_t retries = 0;
    uint64_t reexecSteps = 0;
    uint64_t wastedSteps = 0;
    uint64_t backoffTicks = 0;
    uint64_t ckptDistanceTicks = 0; ///< summed over episodes
    /** Per failure-site tag: episodes and re-executed steps. */
    std::map<std::string, uint64_t> episodesBySite;
    std::map<std::string, uint64_t> reexecBySite;
    /// @}

    /** Folds one finished run's profiler in. */
    void add(const PhaseProfiler &p);
    void merge(const ProfileAgg &o);

    uint64_t totalTicks() const;
    bool empty() const { return runs == 0; }

    /** Mean re-executed steps per episode (0 when episode-free). */
    double reexecPerEpisode() const
    {
        return episodes ? double(reexecSteps) / double(episodes) : 0.0;
    }

    /** Serializes as {"phases": {...}, "recovery_tax": {...}} into an
     *  open writer position.  Deterministic byte-for-byte. */
    void writeJson(JsonWriter &w) const;

    bool operator==(const ProfileAgg &) const = default;
};

} // namespace conair::obs::prof
