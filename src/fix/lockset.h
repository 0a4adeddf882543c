/**
 * @file
 * Interprocedural must-lockset analysis for fix synthesis (src/fix/).
 *
 * Computes, for every instruction, the set of mutex globals that are
 * *definitely* held when it executes — the must-lockset.  The synthesis
 * engine uses it three ways:
 *
 *  - lock *affinity*: which existing mutex already guards most accesses
 *    of a diagnosed racy global (atomicity fixes reuse that mutex
 *    instead of inventing a second, conflicting lock);
 *  - *skip rules*: a function whose racy accesses are already protected
 *    by the chosen mutex must not be wrapped again (a second
 *    acquisition of a non-reentrant mutex is a self-deadlock);
 *  - *lock-order normalization*: the nested-acquisition pairs
 *    (outer held while inner is acquired) are the input to the deadlock
 *    fix, and re-checking them on the patched module is the proof that
 *    a fix introduced no inversion.
 *
 * The analysis is deliberately conservative in the must direction:
 * merges intersect, MutexTimedLock never adds (it may time out), and a
 * function's entry lockset is the fixpoint intersection over all its
 * call sites' locksets (thread entries and main start empty).  Calls do
 * not invalidate the caller's lockset — MiniC kernels never unlock a
 * caller's mutex from a callee, and over-approximating "still held"
 * only ever makes the synthesizer *skip* a wrap or *detect* a nesting,
 * both of which fail safe (skip rules err towards no edit; nesting
 * detection errs towards reporting a pair).
 */
#pragma once

#include <unordered_map>
#include <vector>

#include "ir/module.h"

namespace conair::fix {

/** A must-lockset: mutex globals sorted by Global::id (set semantics). */
using Lockset = std::vector<const ir::Global *>;

/** One nested acquisition: lock(inner) executed while outer is held. */
struct NestedPair
{
    const ir::Global *outer = nullptr;
    const ir::Global *inner = nullptr;
    const ir::Function *fn = nullptr;      ///< where inner is acquired
    const ir::Instruction *lockInst = nullptr; ///< the inner MutexLock
};

/** The whole-module analysis result. */
class LocksetAnalysis
{
  public:
    explicit LocksetAnalysis(const ir::Module &m);

    /** Mutexes definitely held immediately *before* @p inst. */
    const Lockset &locksAt(const ir::Instruction *inst) const;

    /** True when @p mutex is definitely held before @p inst. */
    bool heldAt(const ir::Instruction *inst,
                const ir::Global *mutex) const;

    /** Every nested acquisition in the module, in deterministic
     *  (function order, program order) sequence. */
    const std::vector<NestedPair> &nestedPairs() const
    {
        return pairs_;
    }

  private:
    std::unordered_map<const ir::Function *, Lockset> entry_;
    std::unordered_map<const ir::Instruction *, Lockset> at_;
    std::vector<NestedPair> pairs_;
    static const Lockset empty_;
};

/** The mutex global a MutexLock/MutexUnlock/MutexTimedLock call
 *  operates on, or nullptr when @p inst is no such call or its operand
 *  does not root at a global. */
const ir::Global *lockOperand(const ir::Instruction *inst);

} // namespace conair::fix
