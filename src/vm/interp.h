/**
 * @file
 * The MiniVM interpreter: deterministic execution of multi-threaded
 * MiniIR programs with instruction-level interleaving control.
 *
 * The VM stands in for the paper's testbed (x86 + pthreads + Linux):
 *  - threads interleave at instruction granularity under a seeded,
 *    reproducible scheduler;
 *  - invalid dereferences trap precisely (segmentation faults);
 *  - locks support plain and timed acquisition (deadlock timeouts);
 *  - the ConAir runtime intrinsics (checkpoint / rollback /
 *    compensation / back-off) are implemented natively — the moral
 *    equivalent of the paper's setjmp/longjmp register-image library.
 *
 * Two execution engines share all of the VM's semantics: what each pure
 * opcode computes (one kernel, ops.h), memory, locks, scheduling and
 * the ConAir runtime.  They differ in how an instruction is fetched and
 * its operands resolved, and in how control flow and accounting run:
 *  - ExecEngine::Fused (default) runs the flat arrays the module's
 *    Image decoded once (see decode.h) and bursts a single runnable
 *    thread through superinstruction records (see fuse.h);
 *  - ExecEngine::Reference walks the IR tree exactly like the original
 *    interpreter (hash per operand, pointer chasing per branch).
 * Both engines are deterministic and tick-for-tick identical; the
 * differential tests in tests/vm/decode_diff_test.cpp enforce it.
 */
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>
// (std::deque also backs the whole-program checkpoint stack)

#include "ir/module.h"
#include "support/rng.h"
#include "vm/config.h"
#include "vm/decode.h"
#include "vm/stats.h"
#include "vm/value.h"

namespace conair::vm {

/** Executes one MiniIR module.  One Interp instance = one run; all it
 *  holds is run state, and everything about the module comes from its
 *  Image. */
class Interp
{
  public:
    /** A run of @p image, which must outlive the Interp. */
    Interp(const Image &image, VmConfig cfg);
    /** A temporary image would dangle. */
    Interp(const Image &&, VmConfig) = delete;
    /** A run of @p m on a private image built for it. */
    Interp(const ir::Module &m, VmConfig cfg);
    ~Interp();

    /** Runs main() to completion (or failure) and reports the result. */
    RunResult run();

  private:
    /** Runs the private image @p own and keeps it alive. */
    Interp(std::unique_ptr<const Image> own, VmConfig cfg);

    /** One alloca's storage.  Ids count up from 1 and stay unique
     *  among live slots (a whole-program restore rewinds the counter
     *  along with the slots). */
    struct StackSlot
    {
        uint32_t id;
        std::vector<RtValue> cells;
    };

    struct Frame
    {
        /** The function's image entry: its register map on both
         *  engines, its decoded arrays on the Fused one. */
        const DecodedFunction *dfn = nullptr;
        std::vector<RtValue> regs;
        // Reference engine position (IR tree walk).
        const ir::BasicBlock *block = nullptr;
        ir::BasicBlock::InstList::const_iterator pc;
        const ir::BasicBlock *prevBlock = nullptr;
        // Fused engine position (decoded flat indices).
        uint32_t dBlock = 0;
        uint32_t dPc = 0;
        uint32_t dPrevBlock = kNoBlock;
        /** nextSlotId_ when the frame was pushed.  A frame allocates
         *  only while it is innermost, so its slots' ids run from here
         *  up to the next frame's firstSlotId. */
        uint32_t firstSlotId = 0;
        /** The frame's stack slots in allocation order; they die with
         *  the frame. */
        std::vector<StackSlot> slots;
        uint32_t retReg = 0; ///< caller register receiving the result
        bool wantsRet = false;
    };

    /** The ConAir register-image checkpoint (one slot per thread, like
     *  the paper's thread-local jmp_buf). */
    struct Checkpoint
    {
        bool valid = false;
        size_t frameIndex = 0;
        std::vector<RtValue> regs;
        const ir::BasicBlock *block = nullptr;
        ir::BasicBlock::InstList::const_iterator pc;
        const ir::BasicBlock *prevBlock = nullptr;
        uint32_t dBlock = 0;
        uint32_t dPc = 0;
        uint32_t dPrevBlock = kNoBlock;

        /** RunStats::schedTicks when the checkpoint was taken — the
         *  checkpoint-to-failure distance axis of each rollback, which
         *  feeds RunStats::ckptToFailureTicks, the flight recorder and
         *  RecoveryEvent::ckptDistanceTicks.  Never restored into VM
         *  state. */
        uint64_t schedTicksAt = 0;

        /** Fig 4 "local writes" design point: saved copies of the
         *  frame's stack slots (empty for plain checkpoints). */
        std::vector<StackSlot> locals;
    };

    struct CompensationEntry
    {
        CellKey key;     ///< lock cell, or {Heap, block, 0} for mallocs
        uint64_t epoch;
    };

    struct RecoveryEpisode
    {
        bool active = false;
        int64_t siteId = 0;
        /** The open episode's cost so far; CaRecovered stamps endClock
         *  and moves it into RunStats::recoveries. */
        RecoveryEvent cost;
    };

    enum class ThreadState : uint8_t {
        Runnable,
        Sleeping,
        BlockedLock,
        Joining,
        Done,
    };

    struct HeapBlock
    {
        std::vector<RtValue> cells;
        bool freed = false;
    };

    struct Thread
    {
        uint32_t id;
        ThreadState state = ThreadState::Runnable;
        std::vector<Frame> frames;
        uint64_t wakeAt = 0;       ///< Sleeping / timed lock deadline
        bool lockHasDeadline = false;
        CellKey lockKey{};         ///< BlockedLock
        uint32_t lockResultReg = 0;
        bool lockWantsResult = false;
        uint64_t blockStart = 0;
        uint32_t joinTarget = 0;
        int64_t exitValue = 0;
        const ir::Instruction *blockedAt = nullptr; ///< lock site

        /**
         * Per-thread decision RNG, split off the run seed by thread id
         * (splitmix over seed ^ hash(tid)).  Thread-local stochastic
         * choices (the ConAir deadlock back-off) draw from this stream
         * so two threads' decision sequences are independent and no
         * thread's draws shift the shared scheduler stream.
         */
        Rng rng{0};

        /** PCT scheduling priority (higher runs first); assigned at
         *  creation from the priority stream, dropped into the low
         *  band at change points.  Unused by the other policies. */
        uint64_t priority = 0;

        /** Interp::picks_ when this thread was last chosen (0 = never):
         *  PCT's fairness rule (policyChoice) reads it with `yielded`. */
        uint64_t lastPicked = 0;

        // ConAir per-thread runtime state (paper §3.3, §4.1).
        Checkpoint ckpt;
        int64_t retryCount = 0;
        uint64_t epoch = 0;
        std::vector<CompensationEntry> allocLog;
        std::vector<CompensationEntry> lockLog;
        RecoveryEpisode episode;
        /** Steps retired since the checkpoint: the work the next
         *  rollback discards (RecoveryEvent::wastedSteps). */
        uint64_t stepsSinceCkpt = 0;

        /** No idempotency-destroying instruction since the checkpoint
         *  (chaos mode may roll back only while this holds). */
        bool cleanSinceCkpt = false;

        /**
         * A malloc/lock acquisition has not been compensation-logged
         * yet (the note hook is the next instruction or two away).
         * Real rollbacks only fire at failure sites, which always lie
         * after the logging; chaos must not strike inside the gap.
         */
        bool pendingNote = false;

        /** yield() ran since this thread was last chosen (PCT's
         *  fairness rule; it sits in the record's tail padding). */
        bool yielded = false;
    };

    struct MutexState
    {
        int32_t owner = -1; ///< thread id, -1 = free
        std::deque<uint32_t> waiters;
    };

    //
    // Execution.
    //

    /** Fetches and executes one instruction of @p t, charging the
     *  clock/step accounting (shared by both engines and by the
     *  scheduler fast path). */
    void stepThread(Thread &t);

    // Reference engine (IR tree walk).
    void execInst(Thread &t, const ir::Instruction &inst);
    RtValue getValue(Frame &f, const ir::Value *v);
    void jumpTo(Thread &t, const ir::BasicBlock *target);

    // Fused engine: per-instruction handlers over the decoded arrays
    // (stepwise steps, and the fused burst's delegated records).
    void execDecoded(Thread &t, const DecodedInst &di);
    void execCallDecoded(Thread &t, const DecodedInst &di);
    void jumpToDecoded(Thread &t, uint32_t target);

    // Shared call/builtin plumbing: operands are pre-fetched RtValues,
    // @p dstReg is the dense result slot (valid when the instruction
    // produces a value); @p inst supplies string/function constants,
    // tags, and diagnostics.
    void execCall(Thread &t, const ir::Instruction &inst);
    void execBuiltin(Thread &t, const ir::Instruction &inst,
                     const RtValue *vals, uint32_t dstReg);
    void execConAir(Thread &t, const ir::Instruction &inst,
                    const RtValue *vals, uint32_t dstReg);
    /** Enters @p callee on @p t: argument i is register i on both
     *  engines. */
    void pushFrame(Thread &t, const DecodedFunction &callee,
                   const RtValue *args, unsigned nArgs, bool wants_ret,
                   uint32_t ret_reg);
    void popFrame(Thread &t, RtValue ret);
    /** Pops @p t's innermost frame: frees its stack slots, hands its
     *  register file to freeRegFiles_ and gives its bytes back to the
     *  guest memory budget. */
    void dropFrame(Thread &t);

    //
    // Memory.
    //

    /** Heap block @p id (ids count up from 1 and are never reused;
     *  freed blocks keep their entry), or nullptr if none has it. */
    HeapBlock *
    heapBlock(uint32_t id)
    {
        return id >= 1 && id <= heap_.size() ? &heap_[id - 1] : nullptr;
    }
    /** The one resolver behind every access by @p t through @p p: the
     *  cell, or nullptr with @p fault naming why ("after free", ...).
     *  A stack slot is looked up in @p t's frames first, then in the
     *  other threads'; in each thread, by Frame::firstSlotId, only one
     *  frame can hold it. */
    RtValue *findCell(Thread &t, Ptr p, const char *&fault);
    /** findCell, failing the run with a Segfault on a miss. */
    RtValue *cellAt(Thread &t, Ptr p, const char *what);
    /** The Alloca instruction of both engines: a @p cells-cell slot in
     *  @p t's innermost frame.  Null (and a trapped run) past the
     *  guest memory budget. */
    Ptr allocaSlot(Thread &t, int64_t cells, const ir::Instruction *site);
    /** Charges @p bytes to the guest memory budget, or traps at
     *  @p site and charges nothing when they do not fit. */
    bool chargeGuest(uint64_t bytes, const ir::Instruction *site);
    /** The Load instruction of both engines: the cell @p addr names,
     *  read as @p type into @p t's register @p dstReg.  @p site gives
     *  the tag and the diagnostics. */
    void doLoad(Thread &t, const RtValue &addr, uint32_t dstReg,
                ir::Type type, const ir::Instruction &site);
    /** The Store instruction of both engines: @p v into the cell
     *  @p addr names. */
    void doStore(Thread &t, const RtValue &v, const RtValue &addr,
                 const ir::Instruction &site);

    //
    // Synchronisation.
    //

    MutexState &mutexAt(CellKey key);
    void lockMutex(Thread &t, Ptr p, bool timed, uint64_t timeout,
                   uint32_t dstReg, const ir::Instruction *site);
    void unlockMutex(Thread &t, Ptr p, bool compensation);
    void grantLock(MutexState &m);

    //
    // ConAir runtime.
    //

    void doCheckpoint(Thread &t, const ir::Instruction &inst);
    void doTryRollback(Thread &t, const ir::Instruction &inst,
                       int64_t site_id);
    void runCompensation(Thread &t);
    void restoreCheckpoint(Thread &t);
    void maybeChaosRollback(Thread &t);
    /** SchedHint @p hintId executed by @p t: a configured delay rule
     *  with fires left puts @p t to sleep. */
    void schedHint(Thread &t, uint64_t hintId);

    /** The deadline @p ticks from now, saturating instead of wrapping:
     *  one past the clock's range never comes.  Lock timeouts, delay
     *  rules and sleep all set Thread::wakeAt through it. */
    uint64_t
    deadlineAfter(uint64_t ticks) const
    {
        return ticks > UINT64_MAX - clock_ ? UINT64_MAX : clock_ + ticks;
    }

    /** The chaos tail of every retired instruction (stepThread and the
     *  fused Solo handler): @p dirties closes the idempotent window,
     *  then injection may strike. */
    void
    chaosAfterStep(Thread &t, bool dirties)
    {
        if (cfg_.chaosRollbackEveryN > 0 && running_) {
            if (dirties)
                t.cleanSinceCkpt = false;
            maybeChaosRollback(t);
        }
    }

    /**
     * The burst gate's chaos term: injection could strike @p t on its
     * next step (the mode is on, the checkpoint is valid, the window
     * is still clean, and injection budget is left).  While this is
     * false no step of @p t draws from chaosRng_, so the thread may
     * burst; only a checkpoint or a rollback (both calls) can make it
     * true again, and both burst paths re-check it after those.
     */
    bool
    chaosArmed(const Thread &t) const
    {
        return cfg_.chaosRollbackEveryN > 0 && t.ckpt.valid &&
               t.cleanSinceCkpt &&
               result_.stats.chaosRollbacks < cfg_.chaosMaxRollbacks;
    }

    /** The burst gate: @p t may retire its next instruction without
     *  the scheduler (docs/VM_ENGINE.md shows why each term makes the
     *  skipped work a no-op).  The main loop, runBurst and
     *  runBurstFused's resync all ask it. */
    bool
    burstable(const Thread &t) const
    {
        return quantumLeft_ > 0 && running_ && !forceSwitch_ &&
               !schedEvent_ && !wpPendingRestore_ &&
               t.state == ThreadState::Runnable && !chaosArmed(t) &&
               clock_ < nextWake_ &&
               result_.stats.steps < cfg_.maxSteps &&
               result_.stats.schedTicks < nextSchedPointAt_ &&
               result_.stats.steps < replayNextSwitchAt_ &&
               (cfg_.wpCheckpointInterval == 0 ||
                result_.stats.steps < wpNextSnapshotAt_) &&
               hangCheckCountdown_ > 1;
    }

    //
    // Failure / termination.
    //

    void fail(Outcome o, const std::string &msg,
              const ir::Instruction *site);
    void failHang(const std::string &msg);
    void finish(int64_t exit_code);

    //
    // Scheduling.
    //

    /** The one picker: the thread that runs the next step, or nullptr
     *  when none can.  Replay (cfg_.replay) is its recorded mode, and
     *  replayChoice its choice (docs/VM_ENGINE.md, "Scheduler"). */
    Thread *pickThread();
    static constexpr uint32_t kNoThread = UINT32_MAX; ///< no choice
    /** The policy's choice over runnableScratch_ (not empty).  PCT
     *  passes over a thread that yielded until every other runnable
     *  one has been picked since. */
    uint32_t policyChoice();
    /**
     * Replay's choice over runnableScratch_: the due recorded switch's
     * thread, else the current thread, else (tolerant) the lowest
     * runnable id.  kNoThread when nothing is runnable (a due switch
     * stays pending until a sleeper wakes) or a strict replay diverged
     * (replayDiverge); tolerant mode skips inapplicable switches.
     */
    uint32_t replayChoice();
    /** Ends a strict replay with Outcome::Trap and
     *  RunResult::replayDivergence = @p msg. */
    void replayDiverge(const std::string &msg);
    /** Wakes every thread whose deadline has come; leaves the earliest
     *  one still pending in nextWake_. */
    void wakeDue();
    bool advanceSleepers();
    uint64_t newQuantum();
    /** Allocates a thread with its split decision-RNG stream and (for
     *  PCT) a fresh high-band priority; null (and a trapped run at
     *  @p site) when its record does not fit the guest memory budget. */
    Thread *newThread(const ir::Instruction *site);
    /** Fires the next due PCT priority-change / bounded-preemption
     *  point (no-op until the global step count crosses it). */
    void applySchedPoint(Thread &t);
    /** Drains the rest of the current quantum without consulting the
     *  scheduler while @p t is the only runnable thread.  Preserves
     *  clock ticks, step counts, and RNG draws exactly. */
    void runBurst(Thread &t);
    /** The fused engine's burst: dispatches superinstruction records
     *  (fuse.h) under a precomputed step budget.  Charges identical
     *  per-instruction accounting to runBurst / stepwise execution. */
    void runBurstFused(Thread &t);

    /** How a fused fast-path memory attempt ended. */
    enum class FastMem : uint8_t {
        Done,       ///< completed; no further bookkeeping
        SharedDone, ///< completed non-stack store; schedTicks advanced
        Slow,       ///< not eligible: take the delegated path
    };
    /** The fused burst's inline hit path: the cell of a global, a live
     *  heap block, or a slot of @p t's innermost frame, in bounds;
     *  nullptr means "delegate" to findCell (anything else, or a
     *  fault), never a diagnosed failure. */
    RtValue *fusedCellFast(Thread &t, Ptr p);
    FastMem fusedTryLoad(Thread &t, const DecodedInst &di, RtValue *regs,
                         const RtValue *consts);
    FastMem fusedTryStore(Thread &t, const DecodedInst &di,
                          RtValue *regs, const RtValue *consts);

    //
    // Whole-program checkpoint baseline (Rx/ASSURE stand-in).
    //

    /** Deep copy of every piece of mutable program state. */
    struct WpSnapshot
    {
        std::vector<std::vector<RtValue>> globals;
        std::vector<HeapBlock> heap;
        std::unordered_map<CellKey, MutexState, CellKeyHash> mutexes;
        std::vector<Thread> threads;
        uint32_t nextSlotId;
        uint64_t guestBytes;
        uint32_t currentTid;
        uint64_t quantumLeft;
        uint64_t picks;
        size_t outputLen;
    };

    void wpTakeSnapshot();
    void wpRestore();
    size_t wpStateCells() const;

    /**
     * Checkpoint stack (newest last).  Consecutive failed recovery
     * attempts walk further back, like Rx: the newest snapshot may have
     * captured an already-doomed state (e.g. mid-race), so each retry
     * discards it and rolls back to the one before.  The oldest
     * (program start) snapshot is never discarded.
     */
    std::deque<std::unique_ptr<WpSnapshot>> wpSnapshots_;
    uint64_t wpNextSnapshotAt_ = 0;
    unsigned wpRecoveriesUsed_ = 0;
    bool wpPendingRestore_ = false;

    /** The private image of the module-taking constructor (null when
     *  the caller shares one). */
    std::unique_ptr<const Image> ownImage_;
    const Image &image_;
    VmConfig cfg_;
    /** cfg_.engine is ExecEngine::Fused. */
    bool fused_;
    Rng schedRng_;
    Rng appRng_;
    Rng chaosRng_;
    Rng prioRng_; ///< PCT initial-priority stream (split from seed)

    /**
     * Sorted global step counts where the exploration policies act:
     * PCT priority-change points / PreemptBound forced switches.
     * nextSchedPointAt_ caches the next due point (UINT64_MAX when
     * exhausted or not an exploration policy) so the hot loop and the
     * burst fast path compare one integer.
     */
    std::vector<uint64_t> schedPoints_;
    size_t schedPointNext_ = 0;
    uint64_t nextSchedPointAt_ = UINT64_MAX;

    /**
     * Replay cursor (cfg_.replay set): index of the next unconsumed
     * recorded switch, and its step count (UINT64_MAX once the list is
     * exhausted).  Both burst paths stop at replayNextSwitchAt_ the
     * same way they stop at nextSchedPointAt_, so pickThread is
     * consulted exactly at every recorded decision step.
     */
    size_t replayNext_ = 0;
    uint64_t replayNextSwitchAt_ = UINT64_MAX;

    /** Configured delay rules, densely indexed by delayIndexByHint_;
     *  the fire counters use the same index (a SchedHint without a
     *  rule allocates nothing). */
    std::vector<DelayRule> delayRules_;
    std::unordered_map<uint64_t, uint32_t> delayIndexByHint_;
    /** Per-rule fire counts; deliberately NOT part of WpSnapshot. */
    std::vector<uint64_t> hintFires_;

    // Memory.  Stack slots live in their frames (Frame::slots).
    std::vector<std::vector<RtValue>> globals_;
    std::vector<HeapBlock> heap_; ///< block id i at heap_[i - 1]
    uint32_t nextSlotId_ = 1;
    /** Bytes held for the guest, against kGuestMemoryBytes: globals,
     *  every heap block (freed ones keep their cells), every thread's
     *  record (finished ones keep theirs), and every live frame's
     *  record, register file and stack slots. */
    uint64_t guestBytes_ = 0;
    std::unordered_map<CellKey, MutexState, CellKeyHash> mutexes_;

    // Threads.
    std::vector<std::unique_ptr<Thread>> threads_; ///< indexed by id
    /** Ids of the threads that are not Done, ascending: what every
     *  scan walks (a Done thread is never runnable and has no frames). */
    std::vector<uint32_t> live_;
    uint32_t currentTid_ = 0;
    uint64_t quantumLeft_ = 0;
    bool forceSwitch_ = false;
    /** Set whenever a thread becomes runnable outside the scheduler
     *  (lock grant, join wake, spawn); ends a fast-path burst. */
    bool schedEvent_ = false;
    uint64_t hangCheckCountdown_ = 1024;
    /** The earliest pending deadline, as the last wakeDue left it; the
     *  burst gate keeps it exact until the next one (docs/VM_ENGINE.md). */
    uint64_t nextWake_ = UINT64_MAX;
    /** Threads chosen so far: main at the start of the run, then
     *  every pickThread scan that chose one (Thread::lastPicked). */
    uint64_t picks_ = 0;
    std::vector<uint32_t> runnableScratch_; ///< pickThread, reused
    std::vector<RtValue> phiScratch_;       ///< phi parallel copies
    /** Register files of popped frames, reused by pushFrame so a call
     *  allocates only when it needs more registers than any file
     *  released before it. */
    std::vector<std::vector<RtValue>> freeRegFiles_;

    // The one observability hook (alias of cfg_.recorder; nullptr =
    // disabled, the common case).  Recording is passive: no RNG draws,
    // no clock ticks, no stats mutations.  Metrics and the profile are
    // no hooks: run() folds the finished RunStats into cfg_.metrics
    // and cfg_.profiler.
    obs::FlightRecorder *rec_ = nullptr;
    /** Diagnosis recording mode: rec_ set AND cfg_.recordSharedAccesses
     *  — shared loads/stores also emit SharedLoad/SharedStore events. */
    bool diag_ = false;

    /** Books @p n retired steps of class @p p by @p t into the phase
     *  tally (RunStats::phaseTicks).  Inside an open recovery episode
     *  plain work is re-execution toward the resume point: it lands in
     *  Phase::Reexec and the episode's reexecSteps; the recovery
     *  machinery's own steps (rollback, back-off, checkpoint) keep
     *  their class.  Every step counts toward the steps since @p t's
     *  checkpoint. */
    void
    tallySteps(Thread &t, obs::prof::Phase p, uint64_t n)
    {
        using obs::prof::Phase;
        if (t.episode.active &&
            (p == Phase::Dispatch || p == Phase::Memory ||
             p == Phase::Sync)) {
            p = Phase::Reexec;
            t.episode.cost.reexecSteps += n;
        }
        result_.stats.phaseTicks[size_t(p)] += n;
        t.stepsSinceCkpt += n;
    }

    /** Tallies the one step about to execute, by its opcode.
     *  CaRecovered steps are refunded by execConAir and never
     *  tallied. */
    void
    tallyStep(Thread &t, ir::Opcode op, ir::Builtin builtin)
    {
        if (op == ir::Opcode::Call && builtin == ir::Builtin::CaRecovered)
            return;
        tallySteps(t, obs::prof::classifyPhase(op, builtin), 1);
    }

    /** Books @p ticks slept in back-off by @p t, into the phase tally
     *  and the open episode, if any. */
    void
    tallyBackoff(Thread &t, uint64_t ticks)
    {
        result_.stats.phaseTicks[size_t(obs::prof::Phase::Backoff)] +=
            ticks;
        if (t.episode.active)
            t.episode.cost.backoffTicks += ticks;
    }

    /** Records a SharedLoad/SharedStore event for a successful
     *  non-stack access (diagnosis mode only). */
    void recordSharedAccess(const Thread &t, bool isStore, Ptr addr,
                            const RtValue &v, const std::string &tag);

    // Clock and result.
    uint64_t clock_ = 0;
    bool running_ = true;
    RunResult result_;

    /** RunResult::memDigest of the current memory image (end of run). */
    uint64_t computeMemDigest() const;
};

/** Convenience wrapper: one run of @p image under @p cfg. */
RunResult runProgram(const Image &image, const VmConfig &cfg = {});

/** One run of @p m under @p cfg, on a private image. */
RunResult runProgram(const ir::Module &m, const VmConfig &cfg = {});

} // namespace conair::vm
