#include "vm/interp.h"

#include <algorithm>
#include <cstring>
#include <ostream>

#include "obs/metrics.h"
#include "obs/profile/profile.h"
#include "obs/trace.h"
#include "support/str.h"

namespace conair::vm {

using ir::Builtin;
using ir::Instruction;
using ir::Opcode;

namespace {

/** Resolves a pre-decoded operand reference: dense register slot or
 *  constant-pool entry (decode.h).  kRawRef operands have no runtime
 *  value; reaching one here is the same misuse the tree-walking
 *  getValue() diagnoses. */
inline const RtValue &
refVal(const std::vector<RtValue> &regs, const std::vector<RtValue> &consts,
       OpRef r)
{
    if (r < kConstRef)
        return regs[r];
    if (r == kRawRef)
        fatal("string/function constants are only valid as direct "
              "builtin operands");
    return consts[r & ~kConstRef];
}

} // namespace

const char *
schedPolicyName(SchedPolicy p)
{
    switch (p) {
      case SchedPolicy::RoundRobin: return "rr";
      case SchedPolicy::Random: return "random";
      case SchedPolicy::Pct: return "pct";
      case SchedPolicy::PreemptBound: return "pb";
    }
    return "?";
}

bool
schedPolicyFromName(const std::string &name, SchedPolicy &out)
{
    if (name == "rr")
        out = SchedPolicy::RoundRobin;
    else if (name == "random")
        out = SchedPolicy::Random;
    else if (name == "pct")
        out = SchedPolicy::Pct;
    else if (name == "pb")
        out = SchedPolicy::PreemptBound;
    else
        return false;
    return true;
}

std::vector<uint64_t>
sampleSchedPoints(SchedPolicy policy, uint64_t seed, uint64_t depth,
                  uint64_t horizon)
{
    if (policy != SchedPolicy::Pct && policy != SchedPolicy::PreemptBound)
        return {};
    // A dedicated split stream, so the points are a pure function of
    // (seed, depth, horizon).
    Rng pointRng(seed ^ 0x8f14f4e7c3a2c9b1ull);
    uint64_t n = policy == SchedPolicy::Pct ? (depth > 0 ? depth - 1 : 0)
                                            : depth;
    horizon = std::max<uint64_t>(horizon, 1);
    std::vector<uint64_t> points;
    for (uint64_t i = 0; i < n; ++i)
        points.push_back(1 + pointRng.range(horizon));
    std::sort(points.begin(), points.end());
    return points;
}

const char *
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Success: return "success";
      case Outcome::AssertFail: return "assert-fail";
      case Outcome::OracleFail: return "oracle-fail";
      case Outcome::Segfault: return "segfault";
      case Outcome::Hang: return "hang";
      case Outcome::Timeout: return "timeout";
      case Outcome::Trap: return "trap";
    }
    return "?";
}

std::ostream &
operator<<(std::ostream &os, Outcome o)
{
    return os << outcomeName(o);
}

Interp::Interp(const ir::Module &m, VmConfig cfg)
    : module_(m), cfg_(cfg), schedRng_(cfg.seed), appRng_(cfg.appSeed),
      chaosRng_(cfg.seed ^ 0x5bd1e995u),
      prioRng_(cfg.seed ^ 0xda942042e4dd58b5ull)
{
    rec_ = cfg_.recorder;
    diag_ = rec_ != nullptr && cfg_.recordSharedAccesses;

    // Replay mode: the recorded switch list *is* the schedule, so the
    // exploration machinery stays dormant — no scheduling points are
    // sampled (nextSchedPointAt_ stays UINT64_MAX) and the cursor
    // starts at the first recorded switch.
    if (cfg_.replay) {
        if (!cfg_.replay->switches.empty())
            replayNextSwitchAt_ = cfg_.replay->switches[0].step;
    } else if (cfg_.policy == SchedPolicy::Pct ||
               cfg_.policy == SchedPolicy::PreemptBound) {
        // Exploration policies: the priority-change / forced-preemption
        // points are sampled up front from the seed, unless the caller
        // pins them (coverage-guided exploration; priorities and
        // decision streams still come from the seed, so (seed, points)
        // is a full schedule identity).
        schedPoints_ =
            cfg_.schedPoints.empty()
                ? sampleSchedPoints(cfg_.policy, cfg_.seed,
                                    cfg_.policy == SchedPolicy::Pct
                                        ? cfg_.pctDepth
                                        : cfg_.preemptBound,
                                    cfg_.pctHorizon)
                : cfg_.schedPoints;
        std::sort(schedPoints_.begin(), schedPoints_.end());
        if (!schedPoints_.empty())
            nextSchedPointAt_ = schedPoints_[0];
    }

    // Densify the delay rules: the hot path indexes delayRules_ /
    // hintFires_ by rule slot, never by hashing the hint id.  A later
    // rule for the same hint overrides an earlier one (matching the
    // map-overwrite semantics this replaces).
    for (const DelayRule &r : cfg_.delays) {
        auto it = delayIndexByHint_.find(r.hintId);
        if (it != delayIndexByHint_.end()) {
            delayRules_[it->second] = r;
        } else {
            delayIndexByHint_[r.hintId] = uint32_t(delayRules_.size());
            delayRules_.push_back(r);
        }
    }
    hintFires_.assign(delayRules_.size(), 0);

    // Materialise globals, unless together they exceed the guest
    // memory budget: then the run traps before main() and allocates
    // nothing.
    uint64_t globalBytes = 0;
    for (const auto &g : m.globals())
        globalBytes += g->size() * sizeof(RtValue);
    if (!chargeGuest(globalBytes, nullptr))
        return;
    for (const auto &g : m.globals()) {
        std::vector<RtValue> cells(g->size());
        if (g->elemType() == ir::Type::Ptr) {
            // Pointer globals start as null (MiniC offers no non-zero
            // pointer initialisers).
            for (auto &cell : cells)
                cell = RtValue::ofPtr(Ptr{});
        } else if (g->elemType() == ir::Type::F64) {
            for (size_t i = 0; i < g->initFp().size() &&
                               i < cells.size(); ++i)
                cells[i] = RtValue::ofFloat(g->initFp()[i]);
            for (size_t i = g->initFp().size(); i < cells.size(); ++i)
                cells[i] = RtValue::ofFloat(0.0);
        } else {
            for (size_t i = 0; i < g->initInt().size() &&
                               i < cells.size(); ++i)
                cells[i] = RtValue::ofInt(g->initInt()[i]);
            for (size_t i = g->initInt().size(); i < cells.size(); ++i)
                cells[i] = RtValue::ofInt(0);
        }
        globals_.push_back(std::move(cells));
    }

    if (cfg_.engine == ExecEngine::Fused)
        decoded_ = std::make_unique<DecodedModule>(m, regMaps_);
}

Interp::~Interp() = default;

//
// Public entry.
//

RunResult
Interp::run()
{
    result_.stats.decodedInsts = decoded_ ? decoded_->totalInsts() : 0;
    result_.stats.fusedInsts = decoded_ ? decoded_->totalFusedInsts() : 0;
    result_.stats.hintRulesTracked = hintFires_.size();
    if (!running_)
        return result_; // the globals exceeded the guest memory budget

    const ir::Function *main_fn = module_.findFunction("main");
    if (!main_fn) {
        fail(Outcome::Trap, "no main() function", nullptr);
        return result_;
    }
    Thread *t0 = newThread();
    pushFrame(*t0, main_fn, nullptr, 0, false, 0);
    quantumLeft_ = newQuantum();

    if (cfg_.wpCheckpointInterval > 0) {
        wpTakeSnapshot(); // initial checkpoint at program start
        wpNextSnapshotAt_ = cfg_.wpCheckpointInterval;
    }

    while (running_) {
        if (wpPendingRestore_) {
            wpRestore();
            continue;
        }
        if (cfg_.wpCheckpointInterval > 0 &&
            result_.stats.steps >= wpNextSnapshotAt_) {
            wpTakeSnapshot();
            wpNextSnapshotAt_ =
                result_.stats.steps + cfg_.wpCheckpointInterval;
        }
        wakeDue();
        Thread *t = pickThread();
        if (!t) {
            if (!advanceSleepers()) {
                failHang(
                    "all threads blocked (deadlock or lost wake-up)");
                if (wpPendingRestore_)
                    continue; // whole-program rollback instead
                break;
            }
            continue;
        }
        stepThread(*t);

        if (result_.stats.steps >= cfg_.maxSteps && running_) {
            // The budget is final: no whole-program rollback can help.
            running_ = false;
            result_.outcome = Outcome::Timeout;
            result_.failureMsg = "instruction budget exhausted";
            break;
        }
        if (--hangCheckCountdown_ == 0) {
            hangCheckCountdown_ = 1024;
            for (const auto &th : threads_) {
                if (th->state == ThreadState::BlockedLock &&
                    !th->lockHasDeadline &&
                    clock_ - th->blockStart > cfg_.hangTimeout) {
                    failHang("thread blocked on a lock past the hang "
                             "timeout");
                    break; // inner loop; restore handled at loop top
                }
            }
        }
        if (cfg_.schedFastPath && running_ && !wpPendingRestore_ &&
            !forceSwitch_ && !schedEvent_ && quantumLeft_ > 0 &&
            t->state == ThreadState::Runnable && !chaosArmed(*t) &&
            result_.stats.schedTicks < nextSchedPointAt_ &&
            result_.stats.steps < replayNextSwitchAt_) {
            if (decoded_)
                runBurstFused(*t);
            else
                runBurst(*t);
            if (result_.stats.steps >= cfg_.maxSteps && running_) {
                running_ = false;
                result_.outcome = Outcome::Timeout;
                result_.failureMsg = "instruction budget exhausted";
                break;
            }
        }
        // Exploration policies: fire the priority-change / forced-
        // preemption point the tick count just crossed.  The burst
        // loop never runs past one, so @p t executed the crossing
        // shared store / sync op and is the thread the point
        // deprioritizes — right at the edge of a racy window.
        if (result_.stats.schedTicks >= nextSchedPointAt_ && running_)
            applySchedPoint(*t);
    }
    result_.clock = clock_;
    result_.memDigest = computeMemDigest();
    if (cfg_.metrics)
        cfg_.metrics->addRun(result_.stats);
    if (cfg_.profiler)
        cfg_.profiler->add(result_.stats);
    return result_;
}

//
// Execution core.
//

void
Interp::stepThread(Thread &t)
{
    Frame &f = t.frames.back();
    ++clock_;
    ++result_.stats.steps;
    if (f.dfn) {
        const DecodedInst &di = f.dfn->insts[f.dPc];
        ++f.dPc; // terminators re-aim it; calls rely on it pointing past
        tallyStep(t, di.op, di.builtin);
        execDecoded(t, di);
        chaosAfterStep(t, di.dirties);
    } else {
        const Instruction &inst = **f.pc;
        ++f.pc;
        tallyStep(t, inst.opcode(), inst.builtin());
        execInst(t, inst);
        chaosAfterStep(t, dirtiesWindow(inst));
    }
}

void
Interp::runBurst(Thread &t)
{
    // While the current thread keeps its claim on the CPU, the
    // scheduler's per-step work is all provably no-op:
    //  - pickThread would take the early-continue (runnable, quantum
    //    left, no forced switch) and consume no RNG;
    //  - wakeDue is a no-op while clock_ < the earliest wake deadline,
    //    and nothing the bursting thread does can create an *earlier*
    //    deadline without also setting forceSwitch_ (sleep, back-off,
    //    timed block all park the thread itself);
    //  - snapshots, the step budget, and the hang-scan cadence are
    //    step-counted and bounded below;
    //  - chaos injection only draws from chaosRng_ while chaosArmed(t),
    //    and the burst stops as soon as a checkpoint or rollback arms
    //    it (stepThread has already run that step's chaos tail).
    // So a burst retires instructions back-to-back with identical
    // clock ticks, step counts, and RNG draws as stepwise scheduling.
    const uint64_t next_wake = nextWakeDeadline();
    const bool wp = cfg_.wpCheckpointInterval > 0;
    while (quantumLeft_ > 0 && running_ && !forceSwitch_ &&
           !schedEvent_ && !wpPendingRestore_ &&
           t.state == ThreadState::Runnable && !chaosArmed(t) &&
           clock_ < next_wake &&
           result_.stats.steps < cfg_.maxSteps &&
           result_.stats.schedTicks < nextSchedPointAt_ &&
           result_.stats.steps < replayNextSwitchAt_ &&
           (!wp || result_.stats.steps < wpNextSnapshotAt_) &&
           hangCheckCountdown_ > 1) {
        --quantumLeft_;
        --hangCheckCountdown_;
        ++result_.stats.fastPathSteps;
        stepThread(t);
    }
}

//
// The fused engine's burst (see fuse.h and docs/VM_ENGINE.md).
//

namespace {

/** refVal without the kRawRef diagnostic: fusion only emits records
 *  whose operands are registers or pool constants. */
inline const RtValue &
fusedRef(const RtValue *regs, const RtValue *consts, OpRef r)
{
    return r < kConstRef ? regs[r] : consts[r & ~kConstRef];
}

/** The trap-free integer ALU kernel: replicates execDecoded's
 *  arithmetic bit for bit.  SDiv/SRem only reach here with an
 *  immediate divisor that is neither 0 nor -1 (classifyAlu). */
inline int64_t
aluCompute(uint8_t sub, int64_t a, int64_t b)
{
    switch (Opcode(sub)) {
      case Opcode::Add: return int64_t(uint64_t(a) + uint64_t(b));
      case Opcode::Sub: return int64_t(uint64_t(a) - uint64_t(b));
      case Opcode::Mul: return int64_t(uint64_t(a) * uint64_t(b));
      case Opcode::SDiv: return a / b;
      case Opcode::SRem: return a % b;
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Shl:
        return int64_t(uint64_t(a) << (uint64_t(b) & 63));
      case Opcode::Shr: return a >> (uint64_t(b) & 63);
      default: return 0; // unreachable: classifyAlu's opcode set
    }
}

/** The compare kernel, including the Eq/Ne runtime pointer-kind check
 *  the generic paths perform. */
inline bool
cmpCompute(uint8_t sub, const RtValue &a, const RtValue &b)
{
    switch (Opcode(sub)) {
      case Opcode::ICmpEq:
      case Opcode::ICmpNe: {
        bool eq = (a.kind == ir::Type::Ptr || b.kind == ir::Type::Ptr)
                      ? a.p == b.p
                      : a.i == b.i;
        return Opcode(sub) == Opcode::ICmpEq ? eq : !eq;
      }
      case Opcode::ICmpSlt: return a.i < b.i;
      case Opcode::ICmpSle: return a.i <= b.i;
      case Opcode::ICmpSgt: return a.i > b.i;
      case Opcode::ICmpSge: return a.i >= b.i;
      default: return false; // unreachable: classify's opcode set
    }
}

} // namespace

RtValue *
Interp::fusedCellFast(Thread &t, Ptr p)
{
    // findCell's common hits, inline.  Everything else (a slot of an
    // outer frame or another thread, and every fault) returns nullptr
    // so the caller delegates: diagnostics and failure reporting stay
    // on the generic path.
    switch (p.seg) {
      case Ptr::Seg::Stack:
        for (StackSlot &s : t.frames.back().slots)
            if (s.id == p.block)
                return uint64_t(p.offset) < s.cells.size()
                           ? &s.cells[p.offset]
                           : nullptr;
        return nullptr;
      case Ptr::Seg::Heap: {
        HeapBlock *b = heapBlock(p.block);
        if (b && !b->freed && uint64_t(p.offset) < b->cells.size())
            return &b->cells[p.offset];
        return nullptr;
      }
      case Ptr::Seg::Global:
        if (p.block < globals_.size() &&
            uint64_t(p.offset) < globals_[p.block].size())
            return &globals_[p.block][p.offset];
        return nullptr;
      default:
        return nullptr;
    }
}

Interp::FastMem
Interp::fusedTryLoad(Thread &t, const DecodedInst &di, RtValue *regs,
                     const RtValue *consts)
{
    if (di.a == kRawRef)
        return FastMem::Slow;
    const Ptr p = fusedRef(regs, consts, di.a).p;
    const RtValue *cell = fusedCellFast(t, p);
    if (!cell)
        return FastMem::Slow;
    if (diag_ && p.seg != Ptr::Seg::Stack)
        return FastMem::Slow; // must record a SharedLoad event
    const RtValue &c = *cell;
    const bool intKinds = (c.kind == ir::Type::I64 ||
                           c.kind == ir::Type::I1) &&
                          (di.type == ir::Type::I64 ||
                           di.type == ir::Type::I1);
    if (c.isUninit() || (c.kind != di.type && !intKinds))
        return FastMem::Slow; // zero-fill / type-confusion diagnostics
    RtValue v = c;
    v.kind = di.type;
    regs[di.dst] = v;
    return FastMem::Done;
}

Interp::FastMem
Interp::fusedTryStore(Thread &t, const DecodedInst &di, RtValue *regs,
                      const RtValue *consts)
{
    if (di.a == kRawRef || di.b == kRawRef)
        return FastMem::Slow;
    const Ptr p = fusedRef(regs, consts, di.b).p;
    RtValue *cell = fusedCellFast(t, p);
    if (!cell)
        return FastMem::Slow;
    if (p.seg == Ptr::Seg::Stack) {
        *cell = fusedRef(regs, consts, di.a);
        return FastMem::Done;
    }
    if (diag_)
        return FastMem::Slow; // must record a SharedStore event
    *cell = fusedRef(regs, consts, di.a);
    ++result_.stats.schedTicks;
    return FastMem::SharedDone;
}

// Dense dispatch: computed goto on GCC/Clang (one indirect branch per
// handler, so the BTB learns per-superinstruction successors), dense
// switch elsewhere.  Both share the handler bodies via VM_CASE/VM_NEXT.
#if defined(__GNUC__) || defined(__clang__)
#define CONAIR_COMPUTED_GOTO 1
#endif

void
Interp::runBurstFused(Thread &t)
{
    // Same contract as runBurst: while this thread keeps its claim on
    // the CPU the scheduler's per-step work is provably no-op, so the
    // burst retires instructions back-to-back with identical clock
    // ticks, step counts, and RNG draws as stepwise scheduling.  The
    // per-step condition re-check is replaced by a precomputed *step
    // budget* (the minimum distance to any step-counted boundary); the
    // conditions that are not step-counted are re-checked exactly where
    // they can change (after stores, and on leaving the burst for any
    // frame/scheduler-affecting instruction).  Only Solo records can
    // arm chaos injection (checkpoints and rollbacks are calls), so
    // Solo runs stepThread's chaos tail and every other record runs
    // with chaos provably unable to strike.
    const uint64_t next_wake = nextWakeDeadline();
    const bool wp = cfg_.wpCheckpointInterval > 0;
    constexpr uint64_t kBudgetCap = uint64_t(1) << 30;

    // Shared across the dispatch labels; assigned, never initialised,
    // so the gotos cannot bypass an initialisation.
    const DecodedFunction *dfnp;
    const DecodedInst *insts;
    const FusedInst *recs;
    const RtValue *consts;
    RtValue *regs;
    Frame *frp;
    const FusedInst *fp;
    uint32_t idx;
    int64_t budget;

    // Deferred tick accounting: pure register-to-register components
    // (Alu, Cmp, PtrAdd, inline jumps) charge these locals instead of
    // the six member counters, and VM_FLUSH() settles them before
    // anything that can observe clock/steps (delegated handlers, trace
    // events, the resync gate).  comps counts full per-instruction
    // charges; phiTicks counts phi copies, which charge clock and
    // steps only.
    uint64_t comps = 0;
    uint64_t phiTicks = 0;
    // Deferred phase tally: memory fast-path charges retired since the
    // last flush (the rest of a segment is plain dispatch).
    uint64_t profMem = 0;

// Settles the deferred charges into the member counters, in the same
// aggregate as stepwise execution: each component is one runBurst loop
// body plus stepThread, each phi tick one clock/step pair.
#define VM_FLUSH_ACCT()                                                \
    do {                                                               \
        quantumLeft_ -= comps;                                         \
        hangCheckCountdown_ -= comps;                                  \
        result_.stats.fastPathSteps += comps;                          \
        result_.stats.fusedSteps += comps;                             \
        clock_ += comps + phiTicks;                                    \
        result_.stats.steps += comps + phiTicks;                       \
        comps = 0;                                                     \
        phiTicks = 0;                                                  \
    } while (0)

// Tallies the deferred segment's phases, excluding the last @p excl
// charges (a delegated instruction the caller tallies by class through
// tallyStep instead): profMem memory fast-path charges, the rest plain
// dispatch.  Within one segment the episode flag is constant — only
// delegated instructions can open or close an episode, and those
// settle the segment first.  Must run before VM_FLUSH_ACCT() zeroes
// the locals.
#define VM_PROF_SEG(excl)                                              \
    do {                                                               \
        if (comps + phiTicks > (excl)) {                               \
            tallySteps(t, obs::prof::Phase::Memory, profMem);          \
            tallySteps(t, obs::prof::Phase::Dispatch,                  \
                       comps + phiTicks - (excl) - profMem);           \
        }                                                              \
        profMem = 0;                                                   \
    } while (0)

// The common settle: attribute the whole segment, then account it.
#define VM_FLUSH()                                                     \
    do {                                                               \
        VM_PROF_SEG(0);                                                \
        VM_FLUSH_ACCT();                                               \
    } while (0)

// One retired component; settled by the next VM_FLUSH().
#define VM_CHARGE()                                                    \
    do {                                                               \
        ++comps;                                                       \
        --budget;                                                      \
    } while (0)

// Applies a fuse-time pre-resolved phi edge (FusedInst::inl0/inl1):
// the copy list is validated complete, in phi order, and trap-free, so
// the parallel copy runs without the generic edge scan.  Charges the
// same one-tick-per-phi accounting as jumpToDecoded (deferred).
#define VM_FUSED_JUMP(tgt, ebegin)                                     \
    do {                                                               \
        const DecodedBlock &db = dfnp->blocks[(tgt)];                  \
        frp->dPrevBlock = frp->dBlock;                                 \
        frp->dBlock = (tgt);                                           \
        frp->dPc = db.first;                                           \
        const uint32_t n = db.phiCount;                                \
        if (n) {                                                       \
            const PhiCopy *pc = dfnp->phiCopies.data() + (ebegin);     \
            RtValue tmp[kMaxInlinePhi];                                \
            for (uint32_t k = 0; k < n; ++k)                           \
                tmp[k] = fusedRef(regs, consts, pc[k].value);          \
            for (uint32_t k = 0; k < n; ++k)                           \
                regs[pc[k].dst] = tmp[k];                              \
            phiTicks += n;                                             \
            budget -= int64_t(n);                                      \
        }                                                              \
    } while (0)

resync:
    VM_FLUSH(); // pending local charges from a budget-exhausted burst
    // The exact per-step gate of runBurst.
    if (!(quantumLeft_ > 0 && running_ && !forceSwitch_ && !schedEvent_ &&
          !wpPendingRestore_ && t.state == ThreadState::Runnable &&
          !chaosArmed(t) && clock_ < next_wake &&
          result_.stats.steps < cfg_.maxSteps &&
          result_.stats.schedTicks < nextSchedPointAt_ &&
          result_.stats.steps < replayNextSwitchAt_ &&
          (!wp || result_.stats.steps < wpNextSnapshotAt_) &&
          hangCheckCountdown_ > 1))
        return;
    frp = &t.frames.back();
    dfnp = frp->dfn;
    insts = dfnp->insts.data();
    recs = dfnp->fused.recs.data();
    consts = dfnp->consts.data();
    regs = frp->regs.data();
    {
        // Steps until the nearest step-counted boundary.  Every gate
        // term is > 0 here, so the budget is at least 1.  Phi copies
        // charge clock/steps without consuming quantum, so branch
        // handlers debit the budget by the target's phi count — a
        // conservative debit only ever ends the inner loop early, and
        // this resync point re-derives everything from exact state.
        uint64_t b = quantumLeft_;
        b = std::min(b, cfg_.maxSteps - result_.stats.steps);
        b = std::min(b, hangCheckCountdown_ - 1);
        if (next_wake != UINT64_MAX)
            b = std::min(b, next_wake - clock_);
        if (wp)
            b = std::min(b, wpNextSnapshotAt_ - result_.stats.steps);
        if (replayNextSwitchAt_ != UINT64_MAX)
            b = std::min(b, replayNextSwitchAt_ - result_.stats.steps);
        budget = int64_t(std::min(b, kBudgetCap));
    }

#ifdef CONAIR_COMPUTED_GOTO
    static const void *kJump[kNumFusedOps] = {
        &&L_Solo,   &&L_SoloCont, &&L_Alu,  &&L_Cmp,
        &&L_CmpBr,  &&L_CondBr,   &&L_Br,   &&L_PtrAdd,
        &&L_Load,   &&L_Store,    &&L_LoadThenAlu,
        &&L_AluThenStore,
    };
#define VM_NEXT()                                                      \
    do {                                                               \
        if (budget <= 0)                                               \
            goto resync;                                               \
        idx = frp->dPc;                                                \
        fp = recs + idx;                                               \
        goto *kJump[unsigned(fp->op)];                                 \
    } while (0)
#define VM_CASE(name) L_##name:
    VM_NEXT();
#else
#define VM_NEXT() continue
#define VM_CASE(name) case FusedOp::name:
    for (;;) {
        if (budget <= 0)
            goto resync;
        idx = frp->dPc;
        fp = recs + idx;
        switch (fp->op) {
#endif

    VM_CASE(Solo)
    {
        frp->dPc = idx + 1;
        VM_CHARGE();
        VM_PROF_SEG(1); // the solo step classifies by opcode below
        tallyStep(t, insts[idx].op, insts[idx].builtin);
        VM_FLUSH_ACCT();
        execDecoded(t, insts[idx]);
        chaosAfterStep(t, insts[idx].dirties);
        goto resync; // may have changed frames, state, or scheduler
    }
    VM_CASE(SoloCont)
    {
        frp->dPc = idx + 1;
        VM_CHARGE();
        VM_PROF_SEG(1); // see Solo
        tallyStep(t, insts[idx].op, insts[idx].builtin);
        VM_FLUSH_ACCT();
        execDecoded(t, insts[idx]);
        if (!running_ || wpPendingRestore_)
            goto resync; // trapping SDiv/SRem and friends
        VM_NEXT();
    }
    VM_CASE(Alu)
    {
        frp->dPc = idx + 1;
        VM_CHARGE();
        int64_t bv = fp->rc ? fp->imm : regs[fp->b].i;
        regs[fp->d] =
            RtValue::ofInt(aluCompute(fp->sub, regs[fp->a].i, bv));
        VM_NEXT();
    }
    VM_CASE(Cmp)
    {
        frp->dPc = idx + 1;
        VM_CHARGE();
        regs[fp->d] = RtValue::ofBool(
            cmpCompute(fp->sub, fusedRef(regs, consts, fp->a),
                       fusedRef(regs, consts, fp->b)));
        VM_NEXT();
    }
    VM_CASE(CmpBr)
    {
        frp->dPc = idx + 1;
        VM_CHARGE();
        bool c = cmpCompute(fp->sub, fusedRef(regs, consts, fp->a),
                            fusedRef(regs, consts, fp->b));
        // The result is architecturally visible (phi copies on the
        // taken edge may read it), so write it before branching.
        regs[fp->d] = RtValue::ofBool(c);
        if (budget <= 0)
            VM_NEXT(); // out of budget mid-pair: the CondBr record at
                       // idx+1 picks up after the resync
        frp->dPc = idx + 2;
        VM_CHARGE();
        if (c ? fp->inl0 : fp->inl1) {
            VM_FUSED_JUMP(c ? fp->t0 : fp->t1, c ? fp->e0 : fp->e1);
            VM_NEXT();
        }
        VM_FLUSH();
        jumpToDecoded(t, c ? fp->t0 : fp->t1);
        if (!running_ || wpPendingRestore_)
            goto resync;
        budget -= int64_t(dfnp->blocks[frp->dBlock].phiCount);
        VM_NEXT();
    }
    VM_CASE(CondBr)
    {
        frp->dPc = idx + 1;
        VM_CHARGE();
        const bool c = fusedRef(regs, consts, fp->a).i != 0;
        if (c ? fp->inl0 : fp->inl1) {
            VM_FUSED_JUMP(c ? fp->t0 : fp->t1, c ? fp->e0 : fp->e1);
            VM_NEXT();
        }
        VM_FLUSH();
        jumpToDecoded(t, c ? fp->t0 : fp->t1);
        if (!running_ || wpPendingRestore_)
            goto resync;
        budget -= int64_t(dfnp->blocks[frp->dBlock].phiCount);
        VM_NEXT();
    }
    VM_CASE(Br)
    {
        frp->dPc = idx + 1;
        VM_CHARGE();
        if (fp->inl0) {
            VM_FUSED_JUMP(fp->t0, fp->e0);
            VM_NEXT();
        }
        VM_FLUSH();
        jumpToDecoded(t, fp->t0);
        if (!running_ || wpPendingRestore_)
            goto resync;
        budget -= int64_t(dfnp->blocks[frp->dBlock].phiCount);
        VM_NEXT();
    }
    VM_CASE(PtrAdd)
    {
        frp->dPc = idx + 1;
        VM_CHARGE();
        RtValue p = fusedRef(regs, consts, fp->a);
        p.p.offset += fusedRef(regs, consts, fp->b).i;
        regs[fp->d] = p;
        VM_NEXT();
    }
    VM_CASE(Load)
    {
        frp->dPc = idx + 1;
        VM_CHARGE();
        if (fusedTryLoad(t, insts[idx], regs, consts) == FastMem::Done) {
            ++profMem;
            VM_NEXT();
        }
        VM_PROF_SEG(1); // the load classifies by opcode below
        tallyStep(t, insts[idx].op, insts[idx].builtin);
        VM_FLUSH_ACCT();
        doLoadDecoded(t, insts[idx]);
        if (!running_ || wpPendingRestore_)
            goto resync;
        VM_NEXT();
    }
    VM_CASE(Store)
    {
        frp->dPc = idx + 1;
        VM_CHARGE();
        const FastMem fm = fusedTryStore(t, insts[idx], regs, consts);
        if (fm == FastMem::Done) {
            ++profMem;
            VM_NEXT();
        }
        if (fm == FastMem::SharedDone) {
            ++profMem;
            if (result_.stats.schedTicks >= nextSchedPointAt_)
                goto resync; // the store crossed a scheduling point
            VM_NEXT();
        }
        VM_PROF_SEG(1); // the store classifies by opcode below
        tallyStep(t, insts[idx].op, insts[idx].builtin);
        VM_FLUSH_ACCT();
        doStoreDecoded(t, insts[idx]);
        if (!running_ || wpPendingRestore_)
            goto resync;
        if (result_.stats.schedTicks >= nextSchedPointAt_)
            goto resync; // a shared store crossed a scheduling point
        VM_NEXT();
    }
    VM_CASE(LoadThenAlu)
    {
        frp->dPc = idx + 1;
        VM_CHARGE();
        if (fusedTryLoad(t, insts[idx], regs, consts) != FastMem::Done) {
            VM_PROF_SEG(1); // see Load
            tallyStep(t, insts[idx].op, insts[idx].builtin);
            VM_FLUSH_ACCT();
            doLoadDecoded(t, insts[idx]);
            if (!running_ || wpPendingRestore_)
                goto resync;
        } else {
            ++profMem;
        }
        if (budget <= 0)
            VM_NEXT(); // the Alu record at idx+1 resumes the pair
        frp->dPc = idx + 2;
        VM_CHARGE();
        int64_t bv = fp->rc2 ? fp->imm2 : regs[fp->b2].i;
        regs[fp->d2] =
            RtValue::ofInt(aluCompute(fp->sub2, regs[fp->a2].i, bv));
        VM_NEXT();
    }
    VM_CASE(AluThenStore)
    {
        frp->dPc = idx + 1;
        VM_CHARGE();
        int64_t bv = fp->rc ? fp->imm : regs[fp->b].i;
        regs[fp->d] =
            RtValue::ofInt(aluCompute(fp->sub, regs[fp->a].i, bv));
        if (budget <= 0)
            VM_NEXT(); // the Store record at idx+1 resumes the pair
        frp->dPc = idx + 2;
        VM_CHARGE();
        const FastMem fm =
            fusedTryStore(t, insts[idx + 1], regs, consts);
        if (fm == FastMem::Done) {
            ++profMem;
            VM_NEXT();
        }
        if (fm == FastMem::SharedDone) {
            ++profMem;
            if (result_.stats.schedTicks >= nextSchedPointAt_)
                goto resync;
            VM_NEXT();
        }
        VM_PROF_SEG(1); // see Store
        tallyStep(t, insts[idx + 1].op, insts[idx + 1].builtin);
        VM_FLUSH_ACCT();
        doStoreDecoded(t, insts[idx + 1]);
        if (!running_ || wpPendingRestore_)
            goto resync;
        if (result_.stats.schedTicks >= nextSchedPointAt_)
            goto resync;
        VM_NEXT();
    }

#ifndef CONAIR_COMPUTED_GOTO
        }
    }
#endif
#undef VM_CASE
#undef VM_NEXT
#undef VM_CHARGE
#undef VM_FUSED_JUMP
#undef VM_FLUSH
#undef VM_PROF_SEG
#undef VM_FLUSH_ACCT
}

//
// Frames.
//

void
Interp::pushFrame(Thread &t, const ir::Function *fn, const RtValue *args,
                  unsigned nArgs, bool wants_ret, uint32_t ret_reg,
                  const DecodedFunction *dfn)
{
    Frame f;
    f.fn = fn;
    f.wantsRet = wants_ret;
    f.retReg = ret_reg;
    f.firstSlotId = nextSlotId_;
    if (decoded_)
        f.dfn = dfn ? dfn : decoded_->of(fn);
    else
        f.map = &regMaps_.of(fn);
    const size_t nRegs = decoded_ ? f.dfn->regCount : f.map->count();
    if (!chargeGuest(sizeof(Frame) + nRegs * sizeof(RtValue), nullptr))
        return;
    // A recycled register file (see freeRegFiles_), zero-filled to the
    // callee's register count exactly like a fresh one.
    if (!freeRegFiles_.empty()) {
        f.regs = std::move(freeRegFiles_.back());
        freeRegFiles_.pop_back();
    }
    f.regs.assign(nRegs, RtValue{});
    if (decoded_) {
        // RegMap numbers arguments first: argument i is register i.
        for (unsigned i = 0; i < nArgs; ++i)
            f.regs[i] = args[i];
        f.dBlock = 0;
        // Start at the entry block's phi records (normally none, so
        // this is its first executable instruction); entering an entry
        // block that has phis traps exactly like the reference path.
        f.dPc = f.dfn->blocks.empty() ? 0 : f.dfn->blocks[0].phiBegin;
        f.dPrevBlock = kNoBlock;
    } else {
        for (unsigned i = 0; i < nArgs; ++i)
            f.regs[f.map->indexOf(fn->arg(i))] = args[i];
        f.block = fn->entry();
        f.pc = fn->entry()->insts().begin();
    }
    t.frames.push_back(std::move(f));
}

void
Interp::dropFrame(Thread &t)
{
    Frame &f = t.frames.back();
    uint64_t bytes = sizeof(Frame) + f.regs.size() * sizeof(RtValue);
    for (const StackSlot &s : f.slots)
        bytes += sizeof(StackSlot) + s.cells.size() * sizeof(RtValue);
    guestBytes_ -= bytes;
    freeRegFiles_.push_back(std::move(f.regs));
    t.frames.pop_back();
}

void
Interp::popFrame(Thread &t, RtValue ret)
{
    const bool wantsRet = t.frames.back().wantsRet;
    const uint32_t retReg = t.frames.back().retReg;
    dropFrame(t);
    if (t.frames.empty()) {
        t.state = ThreadState::Done;
        t.exitValue = ret.kind == ir::Type::I64 ? ret.i : 0;
        // Wake joiners.
        for (auto &other : threads_) {
            if (other->state == ThreadState::Joining &&
                other->joinTarget == t.id) {
                other->state = ThreadState::Runnable;
                schedEvent_ = true;
            }
        }
        if (t.id == 0)
            finish(t.exitValue);
        return;
    }
    if (wantsRet)
        t.frames.back().regs[retReg] = ret;
}

//
// Value plumbing (reference engine).
//

RtValue
Interp::getValue(Frame &f, const ir::Value *v)
{
    using ir::ValueKind;
    switch (v->kind()) {
      case ValueKind::ConstInt: {
        auto *c = static_cast<const ir::ConstInt *>(v);
        return RtValue::ofInt(c->value(), c->type());
      }
      case ValueKind::ConstFloat:
        return RtValue::ofFloat(
            static_cast<const ir::ConstFloat *>(v)->value());
      case ValueKind::ConstNull:
        return RtValue::ofPtr(Ptr{});
      case ValueKind::GlobalAddr: {
        auto *g = static_cast<const ir::GlobalAddr *>(v);
        return RtValue::ofPtr(
            Ptr{Ptr::Seg::Global, g->global()->id(), 0});
      }
      case ValueKind::Argument:
      case ValueKind::Instruction:
        return f.regs[f.map->indexOf(v)];
      case ValueKind::ConstStr:
      case ValueKind::FuncAddr:
        fatal("string/function constants are only valid as direct "
              "builtin operands");
    }
    fatal("getValue: unhandled value kind");
}

void
Interp::setReg(Frame &f, const Instruction *inst, RtValue v)
{
    f.regs[f.map->indexOf(inst)] = v;
}

void
Interp::jumpTo(Thread &t, const ir::BasicBlock *target)
{
    Frame &f = t.frames.back();
    f.prevBlock = f.block;
    f.block = target;
    f.pc = target->insts().begin();

    // Evaluate the leading phis as one parallel copy: every incoming
    // value first (into phiScratch_, in phi order), then every write.
    phiScratch_.clear();
    for (auto it = target->insts().begin(); it != target->insts().end();
         ++it) {
        const Instruction *inst = it->get();
        if (inst->opcode() != Opcode::Phi)
            break;
        bool matched = false;
        for (unsigned i = 0; i < inst->numBlockOps(); ++i) {
            if (inst->incomingBlock(i) == f.prevBlock) {
                phiScratch_.push_back(getValue(f, inst->operand(i)));
                matched = true;
                break;
            }
        }
        if (!matched) {
            fail(Outcome::Trap, "phi has no incoming edge for "
                                "predecessor",
                 inst);
            return;
        }
        ++f.pc;
        ++clock_;
        ++result_.stats.steps;
        tallyStep(t, Opcode::Phi, Builtin::None);
    }
    auto phi = target->insts().begin();
    for (const RtValue &v : phiScratch_)
        setReg(f, (phi++)->get(), v);
}

void
Interp::jumpToDecoded(Thread &t, uint32_t target)
{
    Frame &f = t.frames.back();
    const DecodedFunction &dfn = *f.dfn;
    const DecodedBlock &db = dfn.blocks[target];
    const uint32_t pred = f.dBlock;
    f.dPrevBlock = pred;
    f.dBlock = target;
    f.dPc = db.first;
    if (db.phiCount == 0)
        return;

    const PhiEdge *edge = nullptr;
    for (uint32_t i = 0; i < db.edgeCount; ++i) {
        const PhiEdge &e = dfn.phiEdges[db.edgeBegin + i];
        if (e.pred == pred) {
            edge = &e;
            break;
        }
    }
    // Walk the phis in order, mirroring the reference path exactly:
    // every matched phi charges one tick; the first phi without an
    // edge from this predecessor traps before any copy is applied.
    // (Edge copy lists are emitted in phi order, so the k-th phi
    // matches the next unconsumed copy iff the dst slots agree.)
    phiScratch_.clear();
    uint32_t j = 0;
    for (uint32_t k = 0; k < db.phiCount; ++k) {
        const DecodedInst &ph = dfn.insts[db.phiBegin + k];
        const PhiCopy *copy = edge && j < edge->count
                                  ? &dfn.phiCopies[edge->begin + j]
                                  : nullptr;
        if (!copy || copy->dst != ph.dst) {
            fail(Outcome::Trap,
                 "phi has no incoming edge for predecessor", ph.src);
            return;
        }
        phiScratch_.push_back(refVal(f.regs, dfn.consts, copy->value));
        ++j;
        ++clock_;
        ++result_.stats.steps;
        tallyStep(t, Opcode::Phi, Builtin::None);
    }
    for (uint32_t k = 0; k < db.phiCount; ++k)
        f.regs[dfn.phiCopies[edge->begin + k].dst] = phiScratch_[k];
}

//
// Memory.
//

RtValue *
Interp::findCell(Thread &t, Ptr p, const char *&fault)
{
    switch (p.seg) {
      case Ptr::Seg::Null:
        fault = "through null pointer";
        return nullptr;
      case Ptr::Seg::Global:
        if (p.block >= globals_.size() || p.offset < 0 ||
            p.offset >= int64_t(globals_[p.block].size())) {
            fault = "out of global bounds";
            return nullptr;
        }
        return &globals_[p.block][p.offset];
      case Ptr::Seg::Heap: {
        HeapBlock *b = heapBlock(p.block);
        if (!b) {
            fault = "of unknown heap block";
            return nullptr;
        }
        if (b->freed) {
            fault = "after free";
            return nullptr;
        }
        if (p.offset < 0 || p.offset >= int64_t(b->cells.size())) {
            fault = "out of heap block bounds";
            return nullptr;
        }
        return &b->cells[p.offset];
      }
      case Ptr::Seg::Stack: {
        // Live slot ids are unique, so the search order only decides
        // how soon the slot is found.  In a thread, the slot can only
        // belong to the last frame pushed at or below its id.
        auto search = [&](Thread &th) -> std::vector<RtValue> * {
            auto f = std::upper_bound(
                th.frames.begin(), th.frames.end(), p.block,
                [](uint32_t id, const Frame &fr) {
                    return id < fr.firstSlotId;
                });
            if (f != th.frames.begin())
                for (StackSlot &s : std::prev(f)->slots)
                    if (s.id == p.block)
                        return &s.cells;
            return nullptr;
        };
        std::vector<RtValue> *cells = search(t);
        for (size_t i = 0; !cells && i < threads_.size(); ++i)
            if (threads_[i].get() != &t)
                cells = search(*threads_[i]);
        if (!cells) {
            fault = "through dangling stack pointer";
            return nullptr;
        }
        if (p.offset < 0 || p.offset >= int64_t(cells->size())) {
            fault = "out of stack slot bounds";
            return nullptr;
        }
        return &(*cells)[p.offset];
      }
    }
    fault = "through an invalid pointer";
    return nullptr;
}

RtValue *
Interp::cellAt(Thread &t, Ptr p, const char *what)
{
    const char *fault = nullptr;
    RtValue *cell = findCell(t, p, fault);
    if (!cell)
        fail(Outcome::Segfault, strfmt("%s %s", what, fault), nullptr);
    return cell;
}

bool
Interp::chargeGuest(uint64_t bytes, const Instruction *site)
{
    if (guestBytes_ + bytes > kGuestMemoryBytes) {
        fail(Outcome::Trap,
             strfmt("guest memory exceeds the %llu-byte budget",
                    (unsigned long long)kGuestMemoryBytes),
             site);
        return false;
    }
    guestBytes_ += bytes;
    return true;
}

Ptr
Interp::allocaSlot(Thread &t, int64_t cells, const Instruction *site)
{
    if (!chargeGuest(sizeof(StackSlot) + uint64_t(cells) * sizeof(RtValue),
                     site))
        return Ptr{};
    const uint32_t id = nextSlotId_++;
    t.frames.back().slots.push_back(
        {id, std::vector<RtValue>(size_t(cells))});
    return Ptr{Ptr::Seg::Stack, id, 0};
}

void
Interp::finishLoad(Frame &f, uint32_t dstReg, ir::Type type,
                   const RtValue &cell, const Instruction *site)
{
    if (cell.isUninit()) {
        // Reading a never-written cell yields the zero of the load type.
        switch (type) {
          case ir::Type::F64:
            f.regs[dstReg] = RtValue::ofFloat(0.0);
            break;
          case ir::Type::Ptr:
            f.regs[dstReg] = RtValue::ofPtr(Ptr{});
            break;
          default:
            f.regs[dstReg] = RtValue::ofInt(0, type);
            break;
        }
        return;
    }
    bool int_kinds = (cell.kind == ir::Type::I64 ||
                      cell.kind == ir::Type::I1) &&
                     (type == ir::Type::I64 || type == ir::Type::I1);
    if (cell.kind != type && !int_kinds) {
        fail(Outcome::Trap,
             strfmt("type-confused load: cell holds %s, load wants %s",
                    ir::typeName(cell.kind), ir::typeName(type)),
             site);
        return;
    }
    RtValue v = cell;
    v.kind = type;
    f.regs[dstReg] = v;
}

namespace {

/** Raw payload bits of a runtime value for SharedLoad/SharedStore
 *  events: integers/bools as-is, doubles bit-cast, pointers packed
 *  like cell addresses, uninitialised cells as 0 (matching the
 *  zero-read semantics of finishLoad). */
uint64_t
valueBits(const RtValue &v)
{
    if (v.isUninit())
        return 0;
    switch (v.kind) {
      case ir::Type::F64: {
        uint64_t bits;
        std::memcpy(&bits, &v.f, sizeof bits);
        return bits;
      }
      case ir::Type::Ptr:
        return obs::packCellAddr(uint8_t(v.p.seg), v.p.block,
                                 v.p.offset);
      default:
        return uint64_t(v.i);
    }
}

// Every cell of the largest block keeps its offset in a packed address.
static_assert(obs::cellOffset(obs::packCellAddr(
                  0, 0, ir::kMaxBlockCells - 1)) == ir::kMaxBlockCells - 1);

} // namespace

void
Interp::recordSharedAccess(const Thread &t, bool isStore, Ptr addr,
                           const RtValue &v, const std::string &tag)
{
    rec_->record(t.id,
                 isStore ? obs::EventKind::SharedStore
                         : obs::EventKind::SharedLoad,
                 clock_, result_.stats.steps,
                 obs::packCellAddr(uint8_t(addr.seg), addr.block,
                                   addr.offset),
                 valueBits(v), tag);
}

void
Interp::doLoad(Thread &t, const Instruction &inst)
{
    Frame &f = t.frames.back();
    RtValue addr = getValue(f, inst.operand(0));
    RtValue *cell = cellAt(t, addr.p, "load");
    if (!cell) {
        result_.failureTag = inst.tag();
        return;
    }
    if (diag_ && addr.p.seg != Ptr::Seg::Stack)
        recordSharedAccess(t, false, addr.p, *cell, inst.tag());
    finishLoad(f, f.map->indexOf(&inst), inst.type(), *cell, &inst);
}

void
Interp::doStore(Thread &t, const Instruction &inst)
{
    Frame &f = t.frames.back();
    RtValue v = getValue(f, inst.operand(0));
    RtValue addr = getValue(f, inst.operand(1));
    RtValue *cell = cellAt(t, addr.p, "store");
    if (!cell) {
        result_.failureTag = inst.tag();
        return;
    }
    *cell = v;
    if (addr.p.seg != Ptr::Seg::Stack) {
        ++result_.stats.schedTicks;
        if (diag_)
            recordSharedAccess(t, true, addr.p, v, inst.tag());
    }
}

void
Interp::doLoadDecoded(Thread &t, const DecodedInst &di)
{
    Frame &f = t.frames.back();
    const RtValue &addr = refVal(f.regs, f.dfn->consts, di.a);
    RtValue *cell = cellAt(t, addr.p, "load");
    if (!cell) {
        result_.failureTag = di.src->tag();
        return;
    }
    if (diag_ && addr.p.seg != Ptr::Seg::Stack)
        recordSharedAccess(t, false, addr.p, *cell, di.src->tag());
    finishLoad(f, di.dst, di.type, *cell, di.src);
}

void
Interp::doStoreDecoded(Thread &t, const DecodedInst &di)
{
    Frame &f = t.frames.back();
    RtValue v = refVal(f.regs, f.dfn->consts, di.a);
    const RtValue &addr = refVal(f.regs, f.dfn->consts, di.b);
    RtValue *cell = cellAt(t, addr.p, "store");
    if (!cell) {
        result_.failureTag = di.src->tag();
        return;
    }
    *cell = v;
    if (addr.p.seg != Ptr::Seg::Stack) {
        ++result_.stats.schedTicks;
        if (diag_)
            recordSharedAccess(t, true, addr.p, v, di.src->tag());
    }
}

//
// Synchronisation.
//

Interp::MutexState &
Interp::mutexAt(CellKey key)
{
    return mutexes_[key];
}

void
Interp::lockMutex(Thread &t, Ptr p, bool timed, uint64_t timeout,
                  uint32_t dstReg, const Instruction *site)
{
    if (p.isNull()) {
        fail(Outcome::Segfault, "lock of null mutex", site);
        return;
    }
    CellKey key{p.seg, p.block, p.offset};
    MutexState &m = mutexAt(key);
    if (m.owner == -1) {
        m.owner = int32_t(t.id);
        t.pendingNote = true;
        if (rec_)
            rec_->record(t.id, obs::EventKind::LockAcquire, clock_,
                         result_.stats.steps, key.block, 0,
                         site ? site->tag() : std::string());
        if (timed)
            t.frames.back().regs[dstReg] = RtValue::ofInt(0);
        return;
    }
    if (timed && timeout == 0) {
        // Zero timeout is a try-lock: a contended acquisition reports
        // the timeout immediately instead of parking the thread on an
        // already-expired deadline for a scheduling round.
        if (rec_)
            rec_->record(t.id, obs::EventKind::LockTimeout, clock_,
                         result_.stats.steps, key.block, 1,
                         site ? site->tag() : std::string());
        t.frames.back().regs[dstReg] = RtValue::ofInt(1);
        return;
    }
    // Contended (or recursive, which deadlocks like a default pthread
    // mutex): block the thread.
    m.waiters.push_back(t.id);
    t.state = ThreadState::BlockedLock;
    t.lockKey = key;
    t.blockedAt = site;
    t.blockStart = clock_;
    t.lockHasDeadline = timed;
    if (timed) {
        // Saturate instead of wrapping: an enormous timeout must mean
        // "wait forever", not a deadline in the past.
        uint64_t deadline = clock_ + timeout;
        t.wakeAt = deadline < clock_ ? UINT64_MAX : deadline;
        t.lockResultReg = dstReg;
        t.lockWantsResult = true;
    } else {
        t.wakeAt = 0;
        t.lockWantsResult = false;
    }
    if (rec_)
        rec_->record(t.id, obs::EventKind::LockBlock, clock_,
                     result_.stats.steps, key.block, timed ? 1 : 0,
                     site ? site->tag() : std::string());
    forceSwitch_ = true;
}

void
Interp::grantLock(MutexState &m)
{
    while (m.owner == -1 && !m.waiters.empty()) {
        uint32_t wid = m.waiters.front();
        m.waiters.pop_front();
        Thread &w = *threads_[wid];
        if (w.state != ThreadState::BlockedLock)
            continue; // stale entry (timed out earlier)
        m.owner = int32_t(wid);
        w.state = ThreadState::Runnable;
        w.pendingNote = true;
        schedEvent_ = true;
        if (rec_)
            rec_->record(wid, obs::EventKind::LockAcquire, clock_,
                         result_.stats.steps, w.lockKey.block, 1);
        result_.stats.phaseTicks[size_t(obs::prof::Phase::LockWait)] +=
            clock_ - w.blockStart;
        if (w.lockWantsResult) {
            w.frames.back().regs[w.lockResultReg] = RtValue::ofInt(0);
            w.lockWantsResult = false;
        }
    }
}

void
Interp::unlockMutex(Thread &t, Ptr p, bool compensation)
{
    if (p.isNull()) {
        fail(Outcome::Segfault, "unlock of null mutex", nullptr);
        return;
    }
    CellKey key{p.seg, p.block, p.offset};
    MutexState &m = mutexAt(key);
    if (m.owner != int32_t(t.id)) {
        if (compensation)
            return; // tolerated: the lock may have timed out meanwhile
        fail(Outcome::Trap, "unlock of mutex not held by this thread",
             nullptr);
        return;
    }
    m.owner = -1;
    grantLock(m);
}

//
// Instruction dispatch (reference engine).
//

void
Interp::execInst(Thread &t, const Instruction &inst)
{
    Frame &f = t.frames.back();
    auto val = [&](unsigned i) { return getValue(f, inst.operand(i)); };

    switch (inst.opcode()) {
      case Opcode::Alloca:
        setReg(f, &inst,
               RtValue::ofPtr(allocaSlot(t, inst.allocaSize(), &inst)));
        break;
      case Opcode::Load:
        doLoad(t, inst);
        break;
      case Opcode::Store:
        doStore(t, inst);
        break;
      case Opcode::PtrAdd: {
        RtValue p = val(0);
        RtValue off = val(1);
        p.p.offset += off.i;
        setReg(f, &inst, p);
        break;
      }
      // Integer arithmetic wraps (two's complement), like hardware.
      case Opcode::Add:
        setReg(f, &inst,
               RtValue::ofInt(int64_t(uint64_t(val(0).i) +
                                      uint64_t(val(1).i))));
        break;
      case Opcode::Sub:
        setReg(f, &inst,
               RtValue::ofInt(int64_t(uint64_t(val(0).i) -
                                      uint64_t(val(1).i))));
        break;
      case Opcode::Mul:
        setReg(f, &inst,
               RtValue::ofInt(int64_t(uint64_t(val(0).i) *
                                      uint64_t(val(1).i))));
        break;
      case Opcode::SDiv: {
        int64_t d = val(1).i;
        if (d == 0) {
            fail(Outcome::Trap, "division by zero", &inst);
            break;
        }
        if (d == -1 && val(0).i == INT64_MIN) {
            setReg(f, &inst, RtValue::ofInt(INT64_MIN)); // wraps
            break;
        }
        setReg(f, &inst, RtValue::ofInt(val(0).i / d));
        break;
      }
      case Opcode::SRem: {
        int64_t d = val(1).i;
        if (d == 0) {
            fail(Outcome::Trap, "remainder by zero", &inst);
            break;
        }
        if (d == -1) {
            setReg(f, &inst, RtValue::ofInt(0));
            break;
        }
        setReg(f, &inst, RtValue::ofInt(val(0).i % d));
        break;
      }
      case Opcode::And:
        setReg(f, &inst, RtValue::ofInt(val(0).i & val(1).i));
        break;
      case Opcode::Or:
        setReg(f, &inst, RtValue::ofInt(val(0).i | val(1).i));
        break;
      case Opcode::Xor:
        setReg(f, &inst, RtValue::ofInt(val(0).i ^ val(1).i));
        break;
      case Opcode::Shl:
        setReg(f, &inst,
               RtValue::ofInt(int64_t(uint64_t(val(0).i)
                                      << (uint64_t(val(1).i) & 63))));
        break;
      case Opcode::Shr:
        setReg(f, &inst,
               RtValue::ofInt(val(0).i >> (uint64_t(val(1).i) & 63)));
        break;
      case Opcode::FAdd:
        setReg(f, &inst, RtValue::ofFloat(val(0).f + val(1).f));
        break;
      case Opcode::FSub:
        setReg(f, &inst, RtValue::ofFloat(val(0).f - val(1).f));
        break;
      case Opcode::FMul:
        setReg(f, &inst, RtValue::ofFloat(val(0).f * val(1).f));
        break;
      case Opcode::FDiv:
        setReg(f, &inst, RtValue::ofFloat(val(0).f / val(1).f));
        break;
      case Opcode::ICmpEq:
      case Opcode::ICmpNe: {
        RtValue a = val(0), b = val(1);
        bool eq;
        if (a.kind == ir::Type::Ptr || b.kind == ir::Type::Ptr)
            eq = a.p == b.p;
        else
            eq = a.i == b.i;
        bool r = inst.opcode() == Opcode::ICmpEq ? eq : !eq;
        setReg(f, &inst, RtValue::ofBool(r));
        break;
      }
      case Opcode::ICmpSlt:
        setReg(f, &inst, RtValue::ofBool(val(0).i < val(1).i));
        break;
      case Opcode::ICmpSle:
        setReg(f, &inst, RtValue::ofBool(val(0).i <= val(1).i));
        break;
      case Opcode::ICmpSgt:
        setReg(f, &inst, RtValue::ofBool(val(0).i > val(1).i));
        break;
      case Opcode::ICmpSge:
        setReg(f, &inst, RtValue::ofBool(val(0).i >= val(1).i));
        break;
      case Opcode::FCmpEq:
        setReg(f, &inst, RtValue::ofBool(val(0).f == val(1).f));
        break;
      case Opcode::FCmpNe:
        setReg(f, &inst, RtValue::ofBool(val(0).f != val(1).f));
        break;
      case Opcode::FCmpLt:
        setReg(f, &inst, RtValue::ofBool(val(0).f < val(1).f));
        break;
      case Opcode::FCmpLe:
        setReg(f, &inst, RtValue::ofBool(val(0).f <= val(1).f));
        break;
      case Opcode::FCmpGt:
        setReg(f, &inst, RtValue::ofBool(val(0).f > val(1).f));
        break;
      case Opcode::FCmpGe:
        setReg(f, &inst, RtValue::ofBool(val(0).f >= val(1).f));
        break;
      case Opcode::SiToFp:
        setReg(f, &inst, RtValue::ofFloat(double(val(0).i)));
        break;
      case Opcode::FpToSi:
        setReg(f, &inst, RtValue::ofInt(int64_t(val(0).f)));
        break;
      case Opcode::Zext:
        setReg(f, &inst, RtValue::ofInt(val(0).i != 0 ? 1 : 0));
        break;
      case Opcode::Phi:
        // Phis are consumed by jumpTo(); reaching one here means entry
        // into a block without a jump.
        fail(Outcome::Trap, "phi executed outside a block transfer",
             &inst);
        break;
      case Opcode::Br:
        jumpTo(t, inst.blockOp(0));
        break;
      case Opcode::CondBr: {
        bool c = val(0).i != 0;
        jumpTo(t, inst.blockOp(c ? 0 : 1));
        break;
      }
      case Opcode::Ret: {
        RtValue ret;
        if (inst.numOperands())
            ret = val(0);
        popFrame(t, ret);
        break;
      }
      case Opcode::Unreachable:
        fail(Outcome::Trap, "unreachable executed", &inst);
        break;
      case Opcode::SchedHint:
        schedHint(t, inst.hintId());
        break;
      case Opcode::Call:
        execCall(t, inst);
        break;
      default:
        fail(Outcome::Trap, "unimplemented opcode", &inst);
        break;
    }
}

void
Interp::execCall(Thread &t, const Instruction &inst)
{
    Frame &f = t.frames.back();
    if (inst.callee()) {
        RtValue argbuf[8];
        std::vector<RtValue> heap_args;
        RtValue *args = argbuf;
        unsigned n = inst.numOperands();
        if (n > 8) {
            heap_args.resize(n);
            args = heap_args.data();
        }
        for (unsigned i = 0; i < n; ++i)
            args[i] = getValue(f, inst.operand(i));
        bool wants = inst.producesValue();
        uint32_t ret_reg = wants ? f.map->indexOf(&inst) : 0;
        pushFrame(t, inst.callee(), args, n, wants, ret_reg);
        return;
    }
    // Builtin: pre-fetch the runtime-valued operands (string/function
    // constants have none; the handlers read those through the
    // instruction, exactly like the fused engine).
    RtValue vals[4] = {};
    unsigned n = std::min(inst.numOperands(), 4u);
    for (unsigned i = 0; i < n; ++i) {
        ir::ValueKind k = inst.operand(i)->kind();
        if (k != ir::ValueKind::ConstStr && k != ir::ValueKind::FuncAddr)
            vals[i] = getValue(f, inst.operand(i));
    }
    uint32_t dst_reg = inst.producesValue() ? f.map->indexOf(&inst) : 0;
    if (ir::builtinIsConAir(inst.builtin()))
        execConAir(t, inst, vals, dst_reg);
    else
        execBuiltin(t, inst, vals, dst_reg);
}

//
// Instruction dispatch (fused engine, one decoded instruction).
//

void
Interp::execDecoded(Thread &t, const DecodedInst &di)
{
    Frame &f = t.frames.back();
    const DecodedFunction &dfn = *f.dfn;
    auto val = [&](OpRef r) -> const RtValue & {
        return refVal(f.regs, dfn.consts, r);
    };

    switch (di.op) {
      case Opcode::Alloca:
        f.regs[di.dst] = RtValue::ofPtr(allocaSlot(t, di.imm, di.src));
        break;
      case Opcode::Load:
        doLoadDecoded(t, di);
        break;
      case Opcode::Store:
        doStoreDecoded(t, di);
        break;
      case Opcode::PtrAdd: {
        RtValue p = val(di.a);
        p.p.offset += val(di.b).i;
        f.regs[di.dst] = p;
        break;
      }
      case Opcode::Add:
        f.regs[di.dst] = RtValue::ofInt(
            int64_t(uint64_t(val(di.a).i) + uint64_t(val(di.b).i)));
        break;
      case Opcode::Sub:
        f.regs[di.dst] = RtValue::ofInt(
            int64_t(uint64_t(val(di.a).i) - uint64_t(val(di.b).i)));
        break;
      case Opcode::Mul:
        f.regs[di.dst] = RtValue::ofInt(
            int64_t(uint64_t(val(di.a).i) * uint64_t(val(di.b).i)));
        break;
      case Opcode::SDiv: {
        int64_t d = val(di.b).i;
        if (d == 0) {
            fail(Outcome::Trap, "division by zero", di.src);
            break;
        }
        int64_t a = val(di.a).i;
        if (d == -1 && a == INT64_MIN) {
            f.regs[di.dst] = RtValue::ofInt(INT64_MIN); // wraps
            break;
        }
        f.regs[di.dst] = RtValue::ofInt(a / d);
        break;
      }
      case Opcode::SRem: {
        int64_t d = val(di.b).i;
        if (d == 0) {
            fail(Outcome::Trap, "remainder by zero", di.src);
            break;
        }
        f.regs[di.dst] =
            RtValue::ofInt(d == -1 ? 0 : val(di.a).i % d);
        break;
      }
      case Opcode::And:
        f.regs[di.dst] = RtValue::ofInt(val(di.a).i & val(di.b).i);
        break;
      case Opcode::Or:
        f.regs[di.dst] = RtValue::ofInt(val(di.a).i | val(di.b).i);
        break;
      case Opcode::Xor:
        f.regs[di.dst] = RtValue::ofInt(val(di.a).i ^ val(di.b).i);
        break;
      case Opcode::Shl:
        f.regs[di.dst] = RtValue::ofInt(int64_t(
            uint64_t(val(di.a).i) << (uint64_t(val(di.b).i) & 63)));
        break;
      case Opcode::Shr:
        f.regs[di.dst] =
            RtValue::ofInt(val(di.a).i >> (uint64_t(val(di.b).i) & 63));
        break;
      case Opcode::FAdd:
        f.regs[di.dst] = RtValue::ofFloat(val(di.a).f + val(di.b).f);
        break;
      case Opcode::FSub:
        f.regs[di.dst] = RtValue::ofFloat(val(di.a).f - val(di.b).f);
        break;
      case Opcode::FMul:
        f.regs[di.dst] = RtValue::ofFloat(val(di.a).f * val(di.b).f);
        break;
      case Opcode::FDiv:
        f.regs[di.dst] = RtValue::ofFloat(val(di.a).f / val(di.b).f);
        break;
      case Opcode::ICmpEq:
      case Opcode::ICmpNe: {
        const RtValue &a = val(di.a);
        const RtValue &b = val(di.b);
        bool eq = (a.kind == ir::Type::Ptr || b.kind == ir::Type::Ptr)
                      ? a.p == b.p
                      : a.i == b.i;
        f.regs[di.dst] =
            RtValue::ofBool(di.op == Opcode::ICmpEq ? eq : !eq);
        break;
      }
      case Opcode::ICmpSlt:
        f.regs[di.dst] = RtValue::ofBool(val(di.a).i < val(di.b).i);
        break;
      case Opcode::ICmpSle:
        f.regs[di.dst] = RtValue::ofBool(val(di.a).i <= val(di.b).i);
        break;
      case Opcode::ICmpSgt:
        f.regs[di.dst] = RtValue::ofBool(val(di.a).i > val(di.b).i);
        break;
      case Opcode::ICmpSge:
        f.regs[di.dst] = RtValue::ofBool(val(di.a).i >= val(di.b).i);
        break;
      case Opcode::FCmpEq:
        f.regs[di.dst] = RtValue::ofBool(val(di.a).f == val(di.b).f);
        break;
      case Opcode::FCmpNe:
        f.regs[di.dst] = RtValue::ofBool(val(di.a).f != val(di.b).f);
        break;
      case Opcode::FCmpLt:
        f.regs[di.dst] = RtValue::ofBool(val(di.a).f < val(di.b).f);
        break;
      case Opcode::FCmpLe:
        f.regs[di.dst] = RtValue::ofBool(val(di.a).f <= val(di.b).f);
        break;
      case Opcode::FCmpGt:
        f.regs[di.dst] = RtValue::ofBool(val(di.a).f > val(di.b).f);
        break;
      case Opcode::FCmpGe:
        f.regs[di.dst] = RtValue::ofBool(val(di.a).f >= val(di.b).f);
        break;
      case Opcode::SiToFp:
        f.regs[di.dst] = RtValue::ofFloat(double(val(di.a).i));
        break;
      case Opcode::FpToSi:
        f.regs[di.dst] = RtValue::ofInt(int64_t(val(di.a).f));
        break;
      case Opcode::Zext:
        f.regs[di.dst] = RtValue::ofInt(val(di.a).i != 0 ? 1 : 0);
        break;
      case Opcode::Phi:
        // Phi records are consumed by jumpToDecoded(); reaching one
        // here means entry into a block without a jump.
        fail(Outcome::Trap, "phi executed outside a block transfer",
             di.src);
        break;
      case Opcode::Br:
        jumpToDecoded(t, di.t0);
        break;
      case Opcode::CondBr:
        jumpToDecoded(t, val(di.a).i != 0 ? di.t0 : di.t1);
        break;
      case Opcode::Ret: {
        RtValue ret;
        if (di.nOps)
            ret = val(di.a);
        popFrame(t, ret);
        break;
      }
      case Opcode::Unreachable:
        fail(Outcome::Trap, "unreachable executed", di.src);
        break;
      case Opcode::SchedHint:
        schedHint(t, uint64_t(di.imm));
        break;
      case Opcode::Call:
        execCallDecoded(t, di);
        break;
      default:
        fail(Outcome::Trap, "unimplemented opcode", di.src);
        break;
    }
}

void
Interp::execCallDecoded(Thread &t, const DecodedInst &di)
{
    Frame &f = t.frames.back();
    const DecodedFunction &dfn = *f.dfn;
    auto ref = [&](unsigned i) -> OpRef {
        return i == 0   ? di.a
               : i == 1 ? di.b
                        : dfn.extraOps[di.extra + (i - 2)];
    };

    if (di.callee) {
        RtValue argbuf[8];
        std::vector<RtValue> heap_args;
        RtValue *args = argbuf;
        if (di.nOps > 8) {
            heap_args.resize(di.nOps);
            args = heap_args.data();
        }
        for (unsigned i = 0; i < di.nOps; ++i)
            args[i] = refVal(f.regs, dfn.consts, ref(i));
        pushFrame(t, di.callee, args, di.nOps, di.hasDst, di.dst,
                  di.calleeDfn);
        return;
    }
    RtValue vals[4] = {};
    unsigned n = std::min<unsigned>(di.nOps, 4);
    for (unsigned i = 0; i < n; ++i) {
        OpRef r = ref(i);
        if (r != kRawRef)
            vals[i] = refVal(f.regs, dfn.consts, r);
    }
    if (ir::builtinIsConAir(di.builtin))
        execConAir(t, *di.src, vals, di.dst);
    else
        execBuiltin(t, *di.src, vals, di.dst);
}

//
// Builtins (shared between the engines: operands arrive pre-fetched,
// the result slot is a dense register index).
//

void
Interp::execBuiltin(Thread &t, const Instruction &inst,
                    const RtValue *vals, uint32_t dstReg)
{
    auto str_arg = [&](unsigned i) -> const std::string & {
        auto *s = static_cast<const ir::ConstStr *>(inst.operand(i));
        return module_.strAt(s->id());
    };

    // Synchronisation operations are scheduling ticks (see
    // RunStats::schedTicks): the points a PCT change point can land on.
    switch (inst.builtin()) {
      case Builtin::ThreadCreate:
      case Builtin::ThreadJoin:
      case Builtin::MutexLock:
      case Builtin::MutexUnlock:
      case Builtin::MutexTimedLock:
      case Builtin::Yield:
      case Builtin::Sleep:
        ++result_.stats.schedTicks;
        break;
      default:
        break;
    }

    switch (inst.builtin()) {
      case Builtin::ThreadCreate: {
        auto *fa = static_cast<const ir::FuncAddr *>(inst.operand(0));
        RtValue arg = vals[1];
        Thread *nt = newThread();
        pushFrame(*nt, fa->function(), &arg, 1, false, 0);
        ++result_.stats.threadsSpawned;
        schedEvent_ = true;
        t.frames.back().regs[dstReg] = RtValue::ofInt(nt->id);
        break;
      }
      case Builtin::ThreadJoin: {
        int64_t tid = vals[0].i;
        if (tid < 0 || tid >= int64_t(threads_.size())) {
            fail(Outcome::Trap, "join of unknown thread", &inst);
            break;
        }
        if (threads_[tid]->state != ThreadState::Done) {
            t.state = ThreadState::Joining;
            t.joinTarget = uint32_t(tid);
            t.blockStart = clock_;
            forceSwitch_ = true;
        }
        break;
      }
      case Builtin::MutexLock:
        lockMutex(t, vals[0].p, false, 0, dstReg, &inst);
        break;
      case Builtin::MutexTimedLock:
        lockMutex(t, vals[0].p, true, uint64_t(vals[1].i), dstReg,
                  &inst);
        break;
      case Builtin::MutexUnlock:
        unlockMutex(t, vals[0].p, false);
        break;
      case Builtin::Malloc: {
        int64_t n = std::max<int64_t>(vals[0].i, 0);
        if (n > ir::kMaxBlockCells) {
            fail(Outcome::Trap,
                 strfmt("malloc of %lld cells exceeds the %lld-cell block "
                        "limit",
                        (long long)n, (long long)ir::kMaxBlockCells),
                 &inst);
            break;
        }
        if (!chargeGuest(sizeof(HeapBlock) + uint64_t(n) * sizeof(RtValue),
                         &inst))
            break;
        heap_.push_back(HeapBlock{std::vector<RtValue>(n), false});
        t.pendingNote = true;
        t.frames.back().regs[dstReg] = RtValue::ofPtr(
            Ptr{Ptr::Seg::Heap, uint32_t(heap_.size()), 0});
        break;
      }
      case Builtin::Free: {
        Ptr p = vals[0].p;
        if (p.isNull())
            break; // free(NULL) is a no-op
        if (p.seg != Ptr::Seg::Heap || p.offset != 0) {
            fail(Outcome::Trap, "free of non-heap or interior pointer",
                 &inst);
            break;
        }
        HeapBlock *b = heapBlock(p.block);
        if (!b || b->freed) {
            fail(Outcome::Trap, "double or invalid free", &inst);
            break;
        }
        b->freed = true;
        break;
      }
      case Builtin::PrintI64:
        result_.output += strfmt("%lld", (long long)vals[0].i);
        break;
      case Builtin::PrintF64:
        result_.output += strfmt("%g", vals[0].f);
        break;
      case Builtin::PrintStr:
        result_.output += str_arg(0);
        break;
      case Builtin::AssertFail:
        fail(Outcome::AssertFail, str_arg(0), &inst);
        break;
      case Builtin::OracleFail:
        fail(Outcome::OracleFail, str_arg(0), &inst);
        break;
      case Builtin::Time:
        t.frames.back().regs[dstReg] =
            RtValue::ofInt(int64_t(clock_) + 1);
        break;
      case Builtin::Yield:
        forceSwitch_ = true;
        break;
      case Builtin::Sleep: {
        int64_t n = vals[0].i;
        if (n > 0) {
            t.state = ThreadState::Sleeping;
            t.wakeAt = clock_ + uint64_t(n);
            forceSwitch_ = true;
        }
        break;
      }
      case Builtin::RandInt: {
        int64_t bound = vals[0].i;
        t.frames.back().regs[dstReg] = RtValue::ofInt(
            bound > 0 ? int64_t(appRng_.range(bound)) : 0);
        break;
      }
      default:
        fail(Outcome::Trap, "unknown builtin", &inst);
        break;
    }
}

//
// ConAir runtime intrinsics.
//

void
Interp::doCheckpoint(Thread &t, const Instruction &inst)
{
    Frame &f = t.frames.back();
    t.ckpt.valid = true;
    t.ckpt.frameIndex = t.frames.size() - 1;
    t.ckpt.regs = f.regs;
    t.ckpt.block = f.block;
    t.ckpt.pc = f.pc; // already advanced: resumes right after setjmp
    t.ckpt.prevBlock = f.prevBlock;
    t.ckpt.dBlock = f.dBlock;
    t.ckpt.dPc = f.dPc;
    t.ckpt.dPrevBlock = f.dPrevBlock;
    t.ckpt.locals.clear();
    if (inst.builtin() == Builtin::CaCheckpointLocals) {
        // The Fig 4 "regions with local-variable writes" point: the
        // frame's stack slots are part of the image, and copying them
        // costs time proportional to their size (unlike the plain
        // register-image setjmp).
        t.ckpt.locals = f.slots;
        uint64_t cells = 0;
        for (const StackSlot &s : f.slots)
            cells += s.cells.size();
        uint64_t cost = cells / 4;
        clock_ += cost;
        result_.stats.steps += cost;
        tallySteps(t, obs::prof::Phase::CheckpointSave, cost);
    }
    t.ckpt.schedTicksAt = result_.stats.schedTicks;
    t.cleanSinceCkpt = true;
    t.stepsSinceCkpt = 0;
    ++t.epoch;
    ++result_.stats.checkpointsExecuted;
    if (rec_)
        rec_->record(t.id, obs::EventKind::Checkpoint, clock_,
                     result_.stats.steps,
                     inst.builtin() == Builtin::CaCheckpointLocals ? 1 : 0,
                     result_.stats.schedTicks);
}

void
Interp::runCompensation(Thread &t)
{
    for (const CompensationEntry &e : t.allocLog) {
        if (e.epoch != t.epoch)
            continue;
        HeapBlock *b = heapBlock(e.key.block);
        if (b && !b->freed) {
            b->freed = true;
            ++result_.stats.compensationFrees;
            if (rec_)
                rec_->record(t.id, obs::EventKind::CompensationFree,
                             clock_, result_.stats.steps, e.key.block);
        }
    }
    t.allocLog.clear();
    for (const CompensationEntry &e : t.lockLog) {
        if (e.epoch != t.epoch)
            continue;
        unlockMutex(t, Ptr{e.key.seg, e.key.block, e.key.offset}, true);
        ++result_.stats.compensationUnlocks;
        if (rec_)
            rec_->record(t.id, obs::EventKind::CompensationUnlock,
                         clock_, result_.stats.steps, e.key.block,
                         e.key.offset);
    }
    t.lockLog.clear();
}

void
Interp::restoreCheckpoint(Thread &t)
{
    // longjmp: unwind to the checkpoint's frame and restore registers.
    while (t.frames.size() > t.ckpt.frameIndex + 1)
        dropFrame(t);
    Frame &target = t.frames.back();
    target.regs = t.ckpt.regs;
    target.block = t.ckpt.block;
    target.pc = t.ckpt.pc;
    target.prevBlock = t.ckpt.prevBlock;
    target.dBlock = t.ckpt.dBlock;
    target.dPc = t.ckpt.dPc;
    target.dPrevBlock = t.ckpt.dPrevBlock;
    for (const StackSlot &saved : t.ckpt.locals)
        for (StackSlot &s : target.slots)
            if (s.id == saved.id)
                s.cells = saved.cells;
    t.cleanSinceCkpt = true; // back at the region start
    t.pendingNote = false;
}

void
Interp::schedHint(Thread &t, uint64_t hintId)
{
    auto it = delayIndexByHint_.find(hintId);
    if (it == delayIndexByHint_.end())
        return;
    const DelayRule &r = delayRules_[it->second];
    uint64_t &fired = hintFires_[it->second];
    if (r.delayTicks == 0 || (r.maxFires != 0 && fired >= r.maxFires))
        return;
    ++fired;
    t.state = ThreadState::Sleeping;
    t.wakeAt = clock_ + r.delayTicks;
    forceSwitch_ = true;
}

void
Interp::doTryRollback(Thread &t, const Instruction &inst, int64_t site_id)
{
    if (!t.ckpt.valid || t.retryCount >= cfg_.maxRetries)
        return; // give up: fall through to the original failure

    ++t.retryCount;
    ++result_.stats.rollbacks;

    uint64_t distance = result_.stats.schedTicks - t.ckpt.schedTicksAt;
    if (!t.episode.active || t.episode.siteId != site_id) {
        t.episode.active = true;
        t.episode.siteId = site_id;
        t.episode.cost = RecoveryEvent{};
        t.episode.cost.siteTag = inst.tag();
        t.episode.cost.tid = t.id;
        t.episode.cost.ckptDistanceTicks = distance;
        t.episode.cost.startClock = clock_;
    }
    RecoveryEvent &ep = t.episode.cost;
    ++ep.retries;
    // The rollback discards everything executed since the checkpoint:
    // that work is the episode's waste.  Re-execution restarts the
    // window, so the count restarts with it.
    ep.wastedSteps += t.stepsSinceCkpt;
    t.stepsSinceCkpt = 0;

    obs::Histogram &tally = result_.stats.ckptToFailureTicks;
    if (tally.counts.empty())
        tally = obs::Histogram(obs::MetricsRegistry::tickDistanceBuckets());
    tally.observe(distance);
    if (rec_)
        rec_->record(t.id, obs::EventKind::Rollback, clock_,
                     result_.stats.steps, ep.retries, distance,
                     inst.tag());

    runCompensation(t);
    restoreCheckpoint(t);

    // A second failure of the same site means the first re-execution
    // changed nothing: the root cause lives in another thread that
    // still has to run (an order violation's missing definition, a
    // rotator that has not reopened the log).  On a multicore that
    // thread progresses in parallel with the retry loop; on this
    // single-stream VM a strict-priority policy (PCT) would starve it,
    // so model the paper's retry-loop usleep with a short randomized
    // back-off from the thread's own decision stream.
    if (ep.retries >= 2) {
        // Exponential: the waited-for thread may itself sit behind a
        // long-running higher-priority thread, so the total sleep over
        // the retry budget must be able to outlast whole threads.
        uint64_t shift = std::min<uint64_t>(ep.retries - 2, 12);
        uint64_t bound = std::min<uint64_t>(
            std::max<uint64_t>(cfg_.backoffMax, 1) << shift, 8192);
        t.state = ThreadState::Sleeping;
        t.wakeAt = clock_ + 1 + t.rng.range(bound);
        forceSwitch_ = true;
        ++result_.stats.backoffs;
        if (rec_)
            rec_->record(t.id, obs::EventKind::Backoff, clock_,
                         result_.stats.steps, t.wakeAt - clock_, 1);
        tallyBackoff(t, t.wakeAt - clock_);
    }
}

void
Interp::maybeChaosRollback(Thread &t)
{
    if (t.state != ThreadState::Runnable)
        return; // never yank a thread parked in a waiter queue
    if (!t.ckpt.valid || !t.cleanSinceCkpt || t.pendingNote)
        return;
    if (t.frames.size() != t.ckpt.frameIndex + 1)
        return; // inside a callee frame: not this checkpoint's window
    if (result_.stats.chaosRollbacks >= cfg_.chaosMaxRollbacks)
        return;
    if (chaosRng_.range(cfg_.chaosRollbackEveryN) != 0)
        return;
    ++result_.stats.chaosRollbacks;
    result_.stats.chaosSites.push_back({result_.stats.steps, t.id});
    if (rec_)
        rec_->record(t.id, obs::EventKind::ChaosRollback, clock_,
                     result_.stats.steps, result_.stats.steps);
    runCompensation(t);
    restoreCheckpoint(t);
}

void
Interp::execConAir(Thread &t, const Instruction &inst,
                   const RtValue *vals, uint32_t dstReg)
{
    switch (inst.builtin()) {
      case Builtin::CaCheckpoint:
      case Builtin::CaCheckpointLocals:
        doCheckpoint(t, inst);
        break;
      case Builtin::CaTryRollback:
        doTryRollback(t, inst, vals[0].i);
        break;
      case Builtin::CaBackoff: {
        // Per-thread decision stream: concurrent back-offs must not be
        // correlated across threads, and a thread's draws must not
        // shift the shared scheduler stream (which would make the
        // interleaving depend on how often recovery fired).
        uint64_t ticks = 1 + t.rng.range(cfg_.backoffMax);
        t.state = ThreadState::Sleeping;
        t.wakeAt = clock_ + ticks;
        forceSwitch_ = true;
        ++result_.stats.backoffs;
        if (rec_)
            rec_->record(t.id, obs::EventKind::Backoff, clock_,
                         result_.stats.steps, ticks, 0);
        tallyBackoff(t, ticks);
        break;
      }
      case Builtin::CaNoteAlloc: {
        t.pendingNote = false;
        Ptr p = vals[0].p;
        if (p.seg != Ptr::Seg::Heap)
            break;
        // Lazy clean (paper §4.1): entries from older epochs are stale.
        std::erase_if(t.allocLog, [&](const CompensationEntry &e) {
            return e.epoch != t.epoch;
        });
        t.allocLog.push_back({CellKey{p.seg, p.block, 0}, t.epoch});
        break;
      }
      case Builtin::CaNoteLock: {
        t.pendingNote = false;
        Ptr p = vals[0].p;
        std::erase_if(t.lockLog, [&](const CompensationEntry &e) {
            return e.epoch != t.epoch;
        });
        t.lockLog.push_back(
            {CellKey{p.seg, p.block, p.offset}, t.epoch});
        break;
      }
      case Builtin::CaPtrCheck: {
        const char *fault = nullptr;
        t.frames.back().regs[dstReg] =
            RtValue::ofBool(findCell(t, vals[0].p, fault) != nullptr);
        break;
      }
      case Builtin::CaRecovered: {
        // Zero-cost measurement hook: refund the step accounting.
        --clock_;
        --result_.stats.steps;
        int64_t site_id = vals[0].i;
        if (t.episode.active && t.episode.siteId == site_id) {
            RecoveryEvent ev = std::move(t.episode.cost);
            ev.endClock = clock_;
            if (rec_)
                rec_->record(t.id, obs::EventKind::RecoveryDone, clock_,
                             result_.stats.steps, ev.retries,
                             ev.startClock, ev.siteTag);
            result_.stats.recoveries.push_back(std::move(ev));
            t.episode.active = false;
        }
        break;
      }
      default:
        fail(Outcome::Trap, "unknown conair intrinsic", &inst);
        break;
    }
}

//
// Scheduling.
//

uint64_t
Interp::newQuantum()
{
    // Replay: the recorded switch list preempts, never the quantum —
    // and the scheduler RNG must not be drawn (Random would).
    if (cfg_.replay)
        return uint64_t(1) << 62;
    switch (cfg_.policy) {
      case SchedPolicy::RoundRobin:
        return std::max<uint64_t>(cfg_.quantum, 1);
      case SchedPolicy::Pct:
      case SchedPolicy::PreemptBound:
        // No quantum preemption: threads run until they block or a
        // scheduling point fires (the quantum only has to outlast
        // maxSteps).
        return uint64_t(1) << 62;
      case SchedPolicy::Random:
        break;
    }
    return 1 + schedRng_.range(std::max<uint64_t>(2 * cfg_.quantum, 1));
}

Interp::Thread *
Interp::newThread()
{
    auto t = std::make_unique<Thread>();
    t->id = uint32_t(threads_.size());
    // Split decision stream: golden-ratio multiples of (id + 1)
    // decorrelate the thread ids and reseed()'s splitmix finishes the
    // mix, so no two threads share draw sequences and thread N's
    // stream is independent of how many draws thread M made.
    t->rng.reseed(cfg_.seed ^ (0x9e3779b97f4a7c15ull * (t->id + 1)));
    if (cfg_.policy == SchedPolicy::Pct) {
        // High band: strictly above every change-point priority
        // (< pctDepth).  Creation order is deterministic under a fixed
        // schedule, so priorities are reproducible from the seed.
        t->priority = cfg_.pctDepth + (prioRng_.next() >> 32);
    }
    threads_.push_back(std::move(t));
    Thread *created = threads_.back().get();
    if (rec_)
        rec_->record(created->id, obs::EventKind::ThreadSpawn, clock_,
                     result_.stats.steps, created->priority);
    return created;
}

void
Interp::applySchedPoint(Thread &t)
{
    // Consume every point at or below the current tick count (points
    // can collide when the horizon is much smaller than the run).
    while (schedPointNext_ < schedPoints_.size() &&
           result_.stats.schedTicks >= schedPoints_[schedPointNext_]) {
        if (cfg_.policy == SchedPolicy::Pct) {
            // PCT change point i: the running thread drops to low-band
            // priority d-2-i, below every initial priority and every
            // earlier victim, forcing a switch exactly here.
            uint64_t i = schedPointNext_;
            t.priority =
                cfg_.pctDepth >= i + 2 ? cfg_.pctDepth - 2 - i : 0;
        }
        forceSwitch_ = true;
        if (rec_)
            rec_->record(t.id, obs::EventKind::SchedPoint, clock_,
                         result_.stats.steps, schedPointNext_,
                         t.priority);
        ++schedPointNext_;
    }
    nextSchedPointAt_ = schedPointNext_ < schedPoints_.size()
                            ? schedPoints_[schedPointNext_]
                            : UINT64_MAX;
}

Interp::Thread *
Interp::pickThread()
{
    if (cfg_.replay)
        return pickThreadReplay();
    const bool sched_event = schedEvent_;
    schedEvent_ = false;
    // Fast path: the current thread keeps the CPU (no RNG, no scan).
    // Under PCT a scheduling event (spawn, lock grant, wake) may have
    // made a higher-priority thread runnable, so it forces the scan.
    Thread *cur = currentTid_ < threads_.size()
                      ? threads_[currentTid_].get()
                      : nullptr;
    if (cur && cur->state == ThreadState::Runnable && quantumLeft_ > 0 &&
        !forceSwitch_ &&
        !(sched_event && cfg_.policy == SchedPolicy::Pct)) {
        --quantumLeft_;
        return cur;
    }

    runnableScratch_.clear();
    for (const auto &t : threads_)
        if (t->state == ThreadState::Runnable)
            runnableScratch_.push_back(t->id);
    if (runnableScratch_.empty())
        return nullptr;
    forceSwitch_ = false;

    uint32_t chosen;
    switch (cfg_.policy) {
      case SchedPolicy::RoundRobin:
      case SchedPolicy::PreemptBound: {
        // Cycle to the next runnable id (PreemptBound is cooperative
        // round-robin between its forced preemption points).
        chosen = runnableScratch_[0];
        for (uint32_t tid : runnableScratch_) {
            if (tid > currentTid_) {
                chosen = tid;
                break;
            }
        }
        break;
      }
      case SchedPolicy::Pct: {
        // Strict priorities: highest wins, ties break to the lower id
        // (ties are only possible in the low band).
        chosen = runnableScratch_[0];
        for (uint32_t tid : runnableScratch_)
            if (threads_[tid]->priority > threads_[chosen]->priority)
                chosen = tid;
        break;
      }
      case SchedPolicy::Random:
      default:
        chosen = runnableScratch_[schedRng_.range(runnableScratch_.size())];
        break;
    }
    if (rec_ && chosen != currentTid_)
        rec_->record(chosen, obs::EventKind::SchedSwitch, clock_,
                     result_.stats.steps, currentTid_,
                     runnableScratch_.size());
    currentTid_ = chosen;
    quantumLeft_ = newQuantum() - 1;
    return threads_[chosen].get();
}

void
Interp::replayDiverge(const std::string &msg)
{
    if (!running_)
        return;
    running_ = false;
    result_.outcome = Outcome::Trap;
    result_.failureMsg = "replay divergence: " + msg;
    result_.replayDivergence = msg;
}

Interp::Thread *
Interp::pickThreadReplay()
{
    // Scheduling events carry no information in replay mode: their
    // effect on the original run is already baked into the recorded
    // switch list.
    schedEvent_ = false;
    const bool tolerant = cfg_.replay->tolerant;
    const auto &sw = cfg_.replay->switches;

    while (replayNext_ < sw.size() &&
           result_.stats.steps >= sw[replayNext_].step) {
        const ReplaySchedule::Switch &s = sw[replayNext_];
        if (result_.stats.steps > s.step) {
            // The decision step was overrun: the execution no longer
            // matches the recording (both burst paths stop exactly at
            // replayNextSwitchAt_, so a faithful replay never lands
            // here).
            if (tolerant) {
                ++replayNext_;
                continue;
            }
            replayDiverge(strfmt(
                "switch #%zu (thread %u at step %llu) was overrun "
                "(now at step %llu)",
                replayNext_, s.tid, (unsigned long long)s.step,
                (unsigned long long)result_.stats.steps));
            return nullptr;
        }
        Thread *target =
            s.tid < threads_.size() ? threads_[s.tid].get() : nullptr;
        if (target && target->state == ThreadState::Runnable) {
            // Re-recording a replay (minimisation produces its exact
            // log this way) emits the same SchedSwitch stream the
            // original scheduler did: changes of thread only.
            if (rec_ && s.tid != currentTid_) {
                uint64_t runnable = 0;
                for (const auto &th : threads_)
                    runnable += th->state == ThreadState::Runnable;
                rec_->record(s.tid, obs::EventKind::SchedSwitch, clock_,
                             result_.stats.steps, currentTid_,
                             runnable);
            }
            currentTid_ = s.tid;
            quantumLeft_ = newQuantum() - 1;
            ++replayNext_;
            break;
        }
        // Due, but the thread cannot run.  When *nothing* is runnable
        // this is the sleeper-wake shape: the original scheduler took
        // this decision after the clock jumped to the next wake
        // deadline.  Leave the switch unconsumed and let the caller
        // advance sleepers; the retry consumes it.
        bool anyRunnable = false;
        for (const auto &th : threads_)
            anyRunnable |= th->state == ThreadState::Runnable;
        if (!anyRunnable) {
            replayNextSwitchAt_ = s.step;
            forceSwitch_ = false;
            return nullptr;
        }
        if (tolerant) {
            ++replayNext_;
            continue;
        }
        replayDiverge(strfmt(
            "switch #%zu: thread %u is not runnable at step %llu",
            replayNext_, s.tid,
            (unsigned long long)result_.stats.steps));
        return nullptr;
    }
    replayNextSwitchAt_ =
        replayNext_ < sw.size() ? sw[replayNext_].step : UINT64_MAX;
    forceSwitch_ = false;

    Thread *cur = currentTid_ < threads_.size()
                      ? threads_[currentTid_].get()
                      : nullptr;
    if (cur && cur->state == ThreadState::Runnable)
        return cur;

    // The current thread cannot continue and no switch is due.  In a
    // faithful replay nothing is runnable here — the recording would
    // contain a switch otherwise — so wait for sleepers (or report the
    // same hang the original run hit).
    Thread *lowest = nullptr;
    for (const auto &th : threads_)
        if (th->state == ThreadState::Runnable) {
            lowest = th.get();
            break;
        }
    if (!lowest)
        return nullptr;
    if (tolerant) {
        // Deterministic fallback for perturbed schedules: lowest
        // runnable id runs until the next applicable switch.
        if (rec_ && lowest->id != currentTid_) {
            uint64_t runnable = 0;
            for (const auto &th : threads_)
                runnable += th->state == ThreadState::Runnable;
            rec_->record(lowest->id, obs::EventKind::SchedSwitch,
                         clock_, result_.stats.steps, currentTid_,
                         runnable);
        }
        currentTid_ = lowest->id;
        quantumLeft_ = newQuantum() - 1;
        return lowest;
    }
    replayDiverge(strfmt(
        "thread %u cannot continue at step %llu and no switch is "
        "recorded (thread %u is runnable)",
        currentTid_, (unsigned long long)result_.stats.steps,
        lowest->id));
    return nullptr;
}

void
Interp::wakeDue()
{
    for (auto &t : threads_) {
        if (t->state == ThreadState::Sleeping && t->wakeAt <= clock_) {
            t->state = ThreadState::Runnable;
            schedEvent_ = true;
        } else if (t->state == ThreadState::BlockedLock &&
                   t->lockHasDeadline && t->wakeAt <= clock_) {
            // Timed lock expired: remove from the waiter queue and
            // deliver the timeout result.
            MutexState &m = mutexAt(t->lockKey);
            std::erase(m.waiters, t->id);
            t->state = ThreadState::Runnable;
            schedEvent_ = true;
            if (rec_)
                rec_->record(t->id, obs::EventKind::LockTimeout, clock_,
                             result_.stats.steps, t->lockKey.block, 0);
            if (t->lockWantsResult) {
                t->frames.back().regs[t->lockResultReg] =
                    RtValue::ofInt(1);
                t->lockWantsResult = false;
            }
        }
    }
}

uint64_t
Interp::nextWakeDeadline() const
{
    uint64_t min_wake = UINT64_MAX;
    for (const auto &t : threads_) {
        if (t->state == ThreadState::Sleeping ||
            (t->state == ThreadState::BlockedLock && t->lockHasDeadline))
            min_wake = std::min(min_wake, t->wakeAt);
    }
    return min_wake;
}

bool
Interp::advanceSleepers()
{
    uint64_t min_wake = nextWakeDeadline();
    if (min_wake == UINT64_MAX)
        return false;
    clock_ = std::max(clock_, min_wake);
    wakeDue();
    return true;
}

//
// Whole-program checkpoint baseline.
//

size_t
Interp::wpStateCells() const
{
    size_t cells = 0;
    for (const auto &g : globals_)
        cells += g.size();
    for (const HeapBlock &b : heap_)
        cells += b.cells.size();
    for (const auto &t : threads_)
        for (const Frame &f : t->frames) {
            cells += f.regs.size();
            for (const StackSlot &s : f.slots)
                cells += s.cells.size();
        }
    return cells;
}

void
Interp::wpTakeSnapshot()
{
    auto snap = std::make_unique<WpSnapshot>();
    snap->globals = globals_;
    snap->heap = heap_;
    snap->mutexes = mutexes_;
    for (const auto &t : threads_)
        snap->threads.push_back(*t);
    snap->nextSlotId = nextSlotId_;
    snap->guestBytes = guestBytes_;
    snap->currentTid = currentTid_;
    snap->quantumLeft = quantumLeft_;
    snap->outputLen = result_.output.size();
    wpSnapshots_.push_back(std::move(snap));
    if (wpSnapshots_.size() > 8)
        wpSnapshots_.erase(wpSnapshots_.begin() + 1); // keep the start

    // The cost traditional systems pay per checkpoint: proportional to
    // the memory state captured.
    uint64_t cost = uint64_t(double(wpStateCells()) *
                             cfg_.wpSnapshotCostPerCell) +
                    1;
    clock_ += cost;
    result_.stats.steps += cost;
    result_.stats.wpSnapshotCost += cost;
    ++result_.stats.wpSnapshots;
    // Whole-program snapshots are global (no owning thread): charge
    // the main thread, which always exists.
    tallySteps(*threads_[0], obs::prof::Phase::CheckpointSave, cost);
}

void
Interp::wpRestore()
{
    // Walk back one checkpoint per consecutive attempt: the newest may
    // capture a doomed state.  Always keep the program-start snapshot.
    if (wpSnapshots_.size() > 1)
        wpSnapshots_.pop_back();
    const WpSnapshot &snap = *wpSnapshots_.back();
    globals_ = snap.globals;
    heap_ = snap.heap;
    mutexes_ = snap.mutexes;
    threads_.clear();
    for (const Thread &t : snap.threads)
        threads_.push_back(std::make_unique<Thread>(t));
    nextSlotId_ = snap.nextSlotId;
    guestBytes_ = snap.guestBytes;
    currentTid_ = snap.currentTid;
    quantumLeft_ = snap.quantumLeft;
    // Output produced after the snapshot is rolled back too (the
    // sandboxing traditional systems need OS support for).
    result_.output.resize(snap.outputLen);
    // The threads above rewound their share of the phase tally (steps
    // since the checkpoint, the open episode's cost) while the phase
    // totals in result_.stats stand.  Harmless: every caller that
    // turns whole-program checkpointing on runs an unhardened build
    // (src/baselines/ for bench_fig4_ablation and its tests, the
    // wp-checkpoint, replay-log and decode-diff tests), which takes no
    // ConAir checkpoint or rollback that would read that state.
    // Survive by nondeterminism: reexecute under a perturbed schedule.
    schedRng_.reseed(cfg_.seed + 7919 * (wpRecoveriesUsed_ + 1));
    ++wpRecoveriesUsed_;
    ++result_.stats.wpRecoveries;
    wpPendingRestore_ = false;
}

//
// Termination.
//

void
Interp::fail(Outcome o, const std::string &msg, const Instruction *site)
{
    if (!running_ || wpPendingRestore_)
        return;
    if (rec_)
        rec_->record(currentTid_, obs::EventKind::FailureSite, clock_,
                     result_.stats.steps, uint64_t(o), 0,
                     site ? site->tag() : std::string());
    if (cfg_.wpCheckpointInterval > 0 && !wpSnapshots_.empty() &&
        wpRecoveriesUsed_ < cfg_.wpMaxRecoveries) {
        // Whole-program rollback instead of dying.  The restore is
        // deferred to the main loop: the failing instruction's frame
        // must not be touched while it is still on the C++ stack.
        wpPendingRestore_ = true;
        return;
    }
    running_ = false;
    result_.outcome = o;
    result_.failureMsg = msg;
    if (site)
        result_.failureTag = site->tag();
}

void
Interp::failHang(const std::string &msg)
{
    // Report the hang with the lock sites the blocked threads sit at:
    // the information a developer would feed fix mode (";"-separated).
    std::string tags;
    for (const auto &t : threads_) {
        if (t->state != ThreadState::BlockedLock || !t->blockedAt)
            continue;
        if (t->blockedAt->tag().empty())
            continue;
        if (!tags.empty())
            tags += ';';
        tags += t->blockedAt->tag();
    }
    fail(Outcome::Hang, msg, nullptr);
    if (!running_ && result_.outcome == Outcome::Hang)
        result_.failureTag = tags;
}

void
Interp::finish(int64_t exit_code)
{
    running_ = false;
    result_.outcome = Outcome::Success;
    result_.exitCode = exit_code;
}

uint64_t
Interp::computeMemDigest() const
{
    // FNV-1a-style fold over the final memory image in a
    // representation-independent order: globals by index, then heap
    // blocks and the live stack slots by ascending id (ids are
    // allocation-order deterministic, so identical executions visit
    // identical sequences whichever threads' frames hold the slots).
    // Cells hash their kind plus the kind-appropriate payload only, so
    // an i64 cell with a stale union-mate never diverges between
    // engines.
    auto mix = [](uint64_t h, uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
        return h;
    };
    auto cell = [&](uint64_t h, const RtValue &v) {
        h = mix(h, uint64_t(v.kind));
        switch (v.kind) {
          case ir::Type::F64: {
            uint64_t bits;
            static_assert(sizeof bits == sizeof v.f);
            std::memcpy(&bits, &v.f, sizeof bits);
            return mix(h, bits);
          }
          case ir::Type::Ptr:
            h = mix(h, uint64_t(v.p.seg));
            h = mix(h, v.p.block);
            return mix(h, uint64_t(v.p.offset));
          default:
            return mix(h, uint64_t(v.i));
        }
    };
    uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &g : globals_) {
        h = mix(h, g.size());
        for (const RtValue &v : g)
            h = cell(h, v);
    }
    for (size_t i = 0; i < heap_.size(); ++i) {
        const HeapBlock &b = heap_[i];
        h = mix(h, i + 1); // the block's id
        h = mix(h, b.freed ? 1 : 0);
        h = mix(h, b.cells.size());
        for (const RtValue &v : b.cells)
            h = cell(h, v);
    }
    std::vector<const StackSlot *> slots;
    for (const auto &t : threads_)
        for (const Frame &f : t->frames)
            for (const StackSlot &s : f.slots)
                slots.push_back(&s);
    std::sort(slots.begin(), slots.end(),
              [](const StackSlot *a, const StackSlot *b) {
                  return a->id < b->id;
              });
    for (const StackSlot *s : slots) {
        h = mix(h, s->id);
        h = mix(h, s->cells.size());
        for (const RtValue &v : s->cells)
            h = cell(h, v);
    }
    return h;
}

RunResult
runProgram(const ir::Module &m, const VmConfig &cfg)
{
    Interp interp(m, cfg);
    return interp.run();
}

} // namespace conair::vm
