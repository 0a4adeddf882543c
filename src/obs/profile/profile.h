/**
 * @file
 * The deterministic recovery-cost profile (docs/OBSERVABILITY.md,
 * "Profiling").
 *
 * Every run tallies its own cost as it executes: the VM books each
 * retired step and each waited tick into RunStats::phaseTicks, and
 * each recovery episode's cost into the episode's RecoveryEvent.
 * The profile is a fold of that RunStats after the run:
 * ProfileAgg::add(const vm::RunStats &) is the only code that turns a
 * run into a profile, so profiling needs no VM hook and cannot perturb
 * a run.
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
 *     RecoveryEvent carries the checkpoint distance (scheduling ticks
 *     from the checkpoint to the failure), the steps re-executed to
 *     reach the resume point, the work discarded by each rollback
 *     ("wasted" steps since the last checkpoint), and the back-off
 *     ticks slept, joined with the episode's failure-site tag.
 *
 * The campaign engine folds each hardened leg's RunStats per
 * (kernel, policy) in matrix order, so aggregated profiles are
 * independent of worker count (tests/explore/campaign_test.cpp).
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "ir/builtins.h"
#include "ir/instruction.h"

namespace conair {
class JsonWriter;
}

namespace conair::vm {
struct RunStats;
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
inline Phase
classifyPhase(ir::Opcode op, ir::Builtin builtin)
{
    switch (op) {
      case ir::Opcode::Load:
      case ir::Opcode::Store:
        return Phase::Memory;
      case ir::Opcode::Call:
        switch (builtin) {
          case ir::Builtin::ThreadCreate:
          case ir::Builtin::ThreadJoin:
          case ir::Builtin::MutexLock:
          case ir::Builtin::MutexUnlock:
          case ir::Builtin::MutexTimedLock:
          case ir::Builtin::Yield:
          case ir::Builtin::Sleep:
            return Phase::Sync;
          case ir::Builtin::Malloc:
          case ir::Builtin::Free:
            return Phase::Memory;
          case ir::Builtin::CaCheckpoint:
          case ir::Builtin::CaCheckpointLocals:
            return Phase::CheckpointSave;
          case ir::Builtin::CaTryRollback:
            return Phase::Rollback;
          case ir::Builtin::CaBackoff:
            return Phase::Backoff;
          default:
            return Phase::Dispatch;
        }
      default:
        return Phase::Dispatch;
    }
}

/**
 * A mergeable profile aggregate: phase totals plus the recovery-tax
 * rollup.  The campaign folds one hardened-leg RunStats per schedule
 * into it, per (kernel, policy), in matrix order.
 */
struct ProfileAgg
{
    uint64_t ticks[kPhaseCount] = {};
    uint64_t runs = 0; ///< runs folded in

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

    /** Folds one finished run in: its phase tally, and one episode per
     *  RunStats::recoveries entry. */
    void add(const vm::RunStats &run);
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

/** Another name for ProfileAgg, the type of VmConfig::profiler; kept
 *  only because the benchmark program (perfbench/) names it. */
using PhaseProfiler = ProfileAgg;

} // namespace conair::obs::prof
