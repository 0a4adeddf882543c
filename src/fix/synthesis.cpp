#include "fix/fix.h"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/cfg_utils.h"
#include "analysis/dominators.h"
#include "analysis/memory_class.h"
#include "fix/lockset.h"
#include "ir/builder.h"
#include "ir/clone.h"
#include "ir/module.h"
#include "ir/verifier.h"
#include "support/diag.h"

namespace conair::fix {

using ir::BasicBlock;
using ir::Builtin;
using ir::Function;
using ir::Global;
using ir::Instruction;
using ir::IRBuilder;
using ir::Module;
using ir::Opcode;
using ir::Type;
using obs::pm::EpisodeReport;
using obs::pm::Verdict;

const char *
strategyName(Strategy s)
{
    switch (s) {
      case Strategy::None:         return "none";
      case Strategy::WaitForValue: return "wait-for-value";
      case Strategy::LockGuard:    return "lock-guard";
      case Strategy::LockOrder:    return "lock-order";
    }
    return "none";
}

namespace {

/** Virtual ticks slept per wait-loop iteration.  Sleeping blocks the
 *  waiter outright, so the enabling writer gets CPU time under any
 *  policy; PCT's fair yield would do too, but sleep is kept so that
 *  synthesized patches stay the same.  Small enough that a clean-run
 *  waiter wakes promptly. */
constexpr int64_t kWaitSleepTicks = 4;

/** The function component of a site tag ("assert.binlog_append.93" ->
 *  "binlog_append"); empty when the tag has no such shape. */
std::string
tagFunction(const std::string &tag)
{
    size_t first = tag.find('.');
    size_t last = tag.rfind('.');
    if (first == std::string::npos || last == first)
        return "";
    return tag.substr(first + 1, last - first - 1);
}

/** All loads/stores of @p g in @p f, in program order. */
std::vector<Instruction *>
accessesOf(Function &f, const Global *g, bool loadsOnly = false)
{
    std::vector<Instruction *> out;
    for (auto &bb : f.blocks()) {
        for (auto &inst : bb->insts()) {
            if (!analysis::accessesGlobal(inst.get(), g))
                continue;
            if (loadsOnly && inst->opcode() != Opcode::Load)
                continue;
            out.push_back(inst.get());
        }
    }
    return out;
}

bool
storesTo(Function &f, const Global *g)
{
    for (auto &bb : f.blocks())
        for (auto &inst : bb->insts())
            if (inst->opcode() == Opcode::Store &&
                analysis::accessesGlobal(inst.get(), g))
                return true;
    return false;
}

/**
 * OrderViolation -> WaitForValue.
 *
 * The diagnosed pattern: a consumer read the racy global before the
 * enabling write published it.  The paper's order kernels all follow
 * the flag/pointer-publish idiom — the global starts at a known
 * initial value (0 / null) and is written exactly once to its
 * published state — so "the write happened" is observable as "the
 * global left its initial value".  Every dominating load of the
 * global in a non-publishing function is guarded:
 *
 *     check:  v  = load g
 *             eq = cmp v, <init>
 *             condbr eq, spin, tail
 *     spin:   call sleep(kWaitSleepTicks)
 *             br check
 *
 * Loads strictly dominated by an already-guarded load need no guard of
 * their own: once the first wait passes, the global has been published
 * and never returns to its initial value in this idiom.
 */
bool
applyWaitForValue(Module &m, const EpisodeReport &ep, FixPlan &plan)
{
    plan.strategy = Strategy::WaitForValue;
    if (ep.variable.empty()) {
        plan.error = "order-violation diagnosis names no racy global";
        return false;
    }
    Global *g = m.findGlobal(ep.variable);
    if (!g) {
        plan.error = "racy global '" + ep.variable +
                     "' not found in module";
        return false;
    }
    plan.variable = g->name();

    ir::Value *initConst = nullptr;
    Opcode eqOp = Opcode::ICmpEq;
    switch (g->elemType()) {
      case Type::I64:
        initConst = m.getInt(g->initInt().empty() ? 0 : g->initInt()[0]);
        break;
      case Type::Ptr:
        initConst = m.getNull();
        break;
      case Type::F64:
        initConst =
            m.getFloat(g->initFp().empty() ? 0.0 : g->initFp()[0]);
        eqOp = Opcode::FCmpEq;
        break;
      default:
        plan.error = "global '" + g->name() +
                     "' has no waitable element type";
        return false;
    }

    // Collect the guard sites up front: dominance is computed on the
    // unedited CFG (block splits invalidate DomTree, but Instruction
    // pointers stay valid across the list splices they perform).
    struct GuardSite
    {
        Function *fn;
        Instruction *load;
    };
    std::vector<GuardSite> sites;
    for (const auto &fnPtr : m.functions()) {
        Function &f = *fnPtr;
        if (f.blocks().empty() || storesTo(f, g))
            continue; // publishers wait for no one
        std::vector<Instruction *> loads =
            accessesOf(f, g, /*loadsOnly=*/true);
        if (loads.empty())
            continue;
        analysis::DomTree dom(f);
        for (Instruction *load : loads) {
            bool dominated = false;
            for (Instruction *other : loads) {
                if (other != load && dom.dominatesInst(other, load)) {
                    dominated = true;
                    break;
                }
            }
            if (!dominated)
                sites.push_back({&f, load});
        }
    }
    if (sites.empty()) {
        plan.error = "no loads of '" + g->name() +
                     "' outside its publishers to guard";
        return false;
    }

    IRBuilder b(&m);
    for (const GuardSite &site : sites) {
        Function *f = site.fn;
        Instruction *load = site.load;
        BasicBlock *head = load->parent();
        std::string headName = head->name();

        BasicBlock *tail = analysis::splitBlockBefore(
            load, f->freshBlockName("fixwait.tail"));
        BasicBlock *check =
            f->insertBlockAfter(head, f->freshBlockName("fixwait.check"));
        BasicBlock *spin =
            f->insertBlockAfter(check, f->freshBlockName("fixwait.spin"));
        head->terminator()->setBlockOp(0, check);

        // The guard re-reads through the load's own address expression;
        // its operands are defined at or before the split point, so
        // `head` (which dominates check/spin/tail) still dominates
        // every use.
        b.setInsertAtEnd(check);
        Instruction *v = b.load(g->elemType(), load->operand(0));
        Instruction *eq = b.cmp(eqOp, v, initConst);
        b.condBr(eq, spin, tail);
        b.setInsertAtEnd(spin);
        b.callBuiltin(Builtin::Sleep, {m.getInt(kWaitSleepTicks)});
        b.br(check);

        plan.edits.push_back(
            {"wait-loop", f->name(),
             "guard load of '" + g->name() + "' in block '" + headName +
                 "' with a wait-until-published loop"});
    }
    return true;
}

/**
 * AtomicityViolation / LostUpdate -> LockGuard.
 *
 * Chooses the mutex with the highest *affinity* for the racy global —
 * the existing lock already held around the most of its accesses — so
 * the fix joins the program's own locking discipline instead of
 * fighting it; a fresh mutex is minted only when no access is ever
 * protected.  Functions whose racy accesses that mutex does not yet
 * cover get their span (or, when the span leaves a block or crosses a
 * call, their whole body) enclosed in lock/unlock.  Functions already
 * fully covered are skipped — re-acquiring a held non-reentrant mutex
 * is a self-deadlock, the classic over-eager-fix failure.
 */
bool
applyLockGuard(Module &m, const EpisodeReport &ep, FixPlan &plan)
{
    plan.strategy = Strategy::LockGuard;
    if (ep.variable.empty()) {
        plan.error = "atomicity diagnosis names no racy global";
        return false;
    }
    Global *g = m.findGlobal(ep.variable);
    if (!g) {
        plan.error = "racy global '" + ep.variable +
                     "' not found in module";
        return false;
    }
    plan.variable = g->name();

    LocksetAnalysis pre(m);

    // Affinity: how many accesses of g each mutex already guards.
    std::map<uint32_t, std::pair<const Global *, unsigned>> affinity;
    unsigned totalAccesses = 0;
    for (const auto &fnPtr : m.functions()) {
        for (Instruction *acc : accessesOf(*fnPtr, g)) {
            ++totalAccesses;
            for (const Global *mu : pre.locksAt(acc)) {
                auto &slot = affinity[mu->id()];
                slot.first = mu;
                ++slot.second;
            }
        }
    }
    if (totalAccesses == 0) {
        plan.error = "no accesses of '" + g->name() + "' in module";
        return false;
    }

    Global *mu = nullptr;
    unsigned best = 0;
    for (const auto &[id, slot] : affinity) {
        if (slot.second > best) { // map order breaks ties at lowest id
            best = slot.second;
            mu = m.findGlobal(slot.first->name());
        }
    }
    if (mu) {
        plan.usedExistingMutex = true;
    } else {
        mu = m.addGlobal(g->name() + "_fix_lock", Type::I64, 1,
                         /*is_mutex=*/true);
        plan.edits.push_back({"add-mutex", "",
                              "declare mutex '" + mu->name() + "'"});
    }
    plan.mutexName = mu->name();

    // Wrap targets: functions with an unprotected *store* (the update
    // side of the broken atomicity), plus the diagnosed failing
    // function when its reads are unprotected.  Read-only bystanders
    // stay untouched — wrapping them adds deadlock surface without
    // changing the diagnosed interleaving.
    std::string failingFn = tagFunction(ep.siteTag);
    struct WrapTarget
    {
        Function *fn;
        std::vector<Instruction *> unprotected;
    };
    std::vector<WrapTarget> wraps;
    for (const auto &fnPtr : m.functions()) {
        Function &f = *fnPtr;
        std::vector<Instruction *> accs = accessesOf(f, g);
        if (accs.empty())
            continue;
        std::vector<Instruction *> unprotected;
        bool unprotectedStore = false;
        for (Instruction *acc : accs) {
            if (pre.heldAt(acc, mu))
                continue;
            unprotected.push_back(acc);
            if (acc->opcode() == Opcode::Store)
                unprotectedStore = true;
        }
        if (unprotected.empty())
            continue; // fully covered: skip (self-deadlock guard)
        if (!unprotectedStore && f.name() != failingFn)
            continue;
        wraps.push_back({&f, std::move(unprotected)});
    }
    if (wraps.empty()) {
        plan.error = "every access of '" + g->name() +
                     "' is already guarded by '" + mu->name() + "'";
        return false;
    }

    IRBuilder b(&m);
    for (WrapTarget &w : wraps) {
        Function &f = *w.fn;

        // A function that manipulates the chosen mutex on some paths
        // cannot be extended mechanically without risking re-acquisition.
        for (auto &bb : f.blocks()) {
            for (auto &inst : bb->insts()) {
                if (lockOperand(inst.get()) == mu) {
                    plan.error = "function '" + f.name() +
                                 "' already manipulates '" + mu->name() +
                                 "'; cannot extend its critical "
                                 "section automatically";
                    return false;
                }
            }
        }

        Instruction *first = w.unprotected.front();
        Instruction *last = w.unprotected.back();
        BasicBlock *bb = first->parent();
        bool sameBlock = bb == last->parent();
        bool spanHasCall = false;
        if (sameBlock) {
            for (Instruction *i = first; i && i != last;
                 i = bb->next(i)) {
                if (i != first && i->opcode() == Opcode::Call) {
                    spanHasCall = true;
                    break;
                }
            }
        }

        ir::Value *muAddr = m.getGlobalAddr(mu);
        if (sameBlock && !spanHasCall) {
            b.setInsertBefore(first);
            b.callBuiltin(Builtin::MutexLock, {muAddr});
            b.setInsertBefore(bb->next(last));
            b.callBuiltin(Builtin::MutexUnlock, {muAddr});
            plan.edits.push_back(
                {"lock-span", f.name(),
                 "guard the '" + g->name() + "' span in block '" +
                     bb->name() + "' with '" + mu->name() + "'"});
        } else {
            // Whole-function wrap: lock after the entry allocas,
            // unlock before every return.
            BasicBlock *entry = f.entry();
            Instruction *firstReal = nullptr;
            for (auto &inst : entry->insts()) {
                if (inst->opcode() != Opcode::Alloca) {
                    firstReal = inst.get();
                    break;
                }
            }
            if (!firstReal) {
                plan.error = "function '" + f.name() +
                             "' has no lockable entry point";
                return false;
            }
            b.setInsertBefore(firstReal);
            b.callBuiltin(Builtin::MutexLock, {muAddr});
            unsigned rets = 0;
            for (auto &blk : f.blocks()) {
                Instruction *term = blk->terminator();
                if (term && term->opcode() == Opcode::Ret) {
                    b.setInsertBefore(term);
                    b.callBuiltin(Builtin::MutexUnlock, {muAddr});
                    ++rets;
                }
            }
            if (rets == 0) {
                plan.error = "function '" + f.name() +
                             "' never returns; cannot wrap it in '" +
                             mu->name() + "'";
                return false;
            }
            plan.edits.push_back(
                {"wrap-function", f.name(),
                 "guard all '" + g->name() + "' accesses by wrapping "
                 "the function in '" + mu->name() + "'"});
        }
    }
    return true;
}

/**
 * Deadlock -> LockOrder.
 *
 * The canonical acquisition order is ascending declaration order
 * (Global::id).  Every inverted nesting — lock(B) taken while A is
 * held with id(B) < id(A) — is normalized by *coarsening*: B is
 * acquired just before A and released just after A, and the original
 * inner lock/unlock pair is removed.  The critical section only ever
 * grows, so every access the old section protected stays protected.
 * Preconditions (bail otherwise): the function holds statically unique
 * lock/unlock sites for both mutexes, and the nesting is two deep.
 */
bool
applyLockOrder(Module &m, const EpisodeReport &ep, FixPlan &plan)
{
    plan.strategy = Strategy::LockOrder;
    plan.variable = ep.variable; // the diagnosed contended mutex
    LocksetAnalysis pre(m);

    // Group violations by (function, inner lock site); a site nested
    // under several held mutexes is deeper than this transform handles.
    struct Violation
    {
        Function *fn;
        Global *outer;
        Global *inner;
    };
    std::vector<Violation> violations;
    std::set<std::pair<const Function *, const Instruction *>> seen;
    for (const NestedPair &p : pre.nestedPairs()) {
        if (p.inner->id() >= p.outer->id())
            continue; // canonical
        if (!seen.insert({p.fn, p.lockInst}).second) {
            plan.error = "acquisition of '" + p.inner->name() + "' in '" +
                         p.fn->name() +
                         "' is nested under multiple locks";
            return false;
        }
        violations.push_back(
            {m.findFunction(p.fn->name()),
             m.findGlobal(p.outer->name()),
             m.findGlobal(p.inner->name())});
    }
    if (violations.empty()) {
        plan.error = "deadlock diagnosis, but every nested acquisition "
                     "is already in canonical order";
        return false;
    }

    auto uniqueLockOp = [&plan](Function &f, const Global *mu,
                                Builtin kind,
                                Instruction *&out) -> bool {
        out = nullptr;
        for (auto &bb : f.blocks()) {
            for (auto &inst : bb->insts()) {
                if (inst->opcode() != Opcode::Call || inst->callee() ||
                    inst->builtin() != kind ||
                    lockOperand(inst.get()) != mu)
                    continue;
                if (out) {
                    plan.error =
                        "'" + f.name() + "' has multiple " +
                        std::string(kind == Builtin::MutexLock
                                        ? "acquisitions"
                                        : "releases") +
                        " of '" + mu->name() +
                        "'; lock-order normalization needs unique "
                        "sites";
                    return false;
                }
                out = inst.get();
            }
        }
        if (!out) {
            plan.error = "'" + f.name() + "' has no " +
                         std::string(kind == Builtin::MutexLock
                                         ? "acquisition"
                                         : "release") +
                         " of '" + mu->name() + "'";
            return false;
        }
        return true;
    };

    IRBuilder b(&m);
    for (const Violation &v : violations) {
        Function &f = *v.fn;
        Instruction *outerLock = nullptr, *outerUnlock = nullptr;
        Instruction *innerLock = nullptr, *innerUnlock = nullptr;
        if (!uniqueLockOp(f, v.outer, Builtin::MutexLock, outerLock) ||
            !uniqueLockOp(f, v.outer, Builtin::MutexUnlock,
                          outerUnlock) ||
            !uniqueLockOp(f, v.inner, Builtin::MutexLock, innerLock) ||
            !uniqueLockOp(f, v.inner, Builtin::MutexUnlock,
                          innerUnlock))
            return false;

        ir::Value *innerAddr = m.getGlobalAddr(v.inner);
        b.setInsertBefore(outerLock);
        b.callBuiltin(Builtin::MutexLock, {innerAddr});
        Instruction *afterOuterUnlock =
            outerUnlock->parent()->next(outerUnlock);
        b.setInsertBefore(afterOuterUnlock);
        b.callBuiltin(Builtin::MutexUnlock, {innerAddr});
        innerLock->parent()->erase(innerLock);
        innerUnlock->parent()->erase(innerUnlock);

        plan.edits.push_back(
            {"reorder-locks", f.name(),
             "acquire '" + v.inner->name() + "' before '" +
                 v.outer->name() +
                 "' (canonical declaration order) and release it "
                 "after"});
    }
    return true;
}

/** Post-patch lock-discipline audit shared by the lock strategies:
 *  no self-nesting, no two-lock cycle, and (for lock-order fixes) no
 *  surviving inversion. */
bool
auditLockDiscipline(const Module &m, bool requireCanonical,
                    FixPlan &plan)
{
    LocksetAnalysis post(m);
    std::set<std::pair<uint32_t, uint32_t>> ordered;
    for (const NestedPair &p : post.nestedPairs()) {
        if (p.outer == p.inner) {
            plan.error = "patch would re-acquire '" + p.outer->name() +
                         "' while held in '" + p.fn->name() + "'";
            return false;
        }
        if (requireCanonical && p.inner->id() < p.outer->id()) {
            plan.error = "patch leaves non-canonical nesting '" +
                         p.outer->name() + "' -> '" + p.inner->name() +
                         "' in '" + p.fn->name() + "'";
            return false;
        }
        ordered.insert({p.outer->id(), p.inner->id()});
    }
    for (const auto &[a, bId] : ordered) {
        if (ordered.count({bId, a})) {
            plan.error = "patch would create a lock-order cycle";
            return false;
        }
    }
    return true;
}

} // namespace

FixPlan
synthesizeFix(const Module &original,
              const obs::pm::RecoveryReport &report)
{
    FixPlan plan;
    plan.program = report.program;
    const EpisodeReport *ep = report.primary();
    if (!ep) {
        plan.error = "diagnosis carries no episode with a verdict";
        return plan;
    }
    plan.verdict = ep->verdict;

    std::unique_ptr<Module> patched = ir::cloneModule(original);
    bool applied = false;
    bool audit = false;
    switch (ep->verdict) {
      case Verdict::OrderViolation:
        applied = applyWaitForValue(*patched, *ep, plan);
        break;
      case Verdict::AtomicityViolation:
      case Verdict::LostUpdate:
        applied = applyLockGuard(*patched, *ep, plan);
        audit = true;
        break;
      case Verdict::Deadlock:
        applied = applyLockOrder(*patched, *ep, plan);
        audit = true;
        break;
      case Verdict::Unknown:
        plan.error = "verdict 'unknown' has no fix strategy";
        return plan;
    }
    if (!applied)
        return plan;

    if (audit &&
        !auditLockDiscipline(
            *patched, ep->verdict == Verdict::Deadlock, plan))
        return plan;

    DiagEngine diags;
    if (!ir::verifyModule(*patched, diags)) {
        plan.error = "patched module failed verification: " +
                     (diags.diags().empty() ? std::string("(no detail)")
                                            : diags.diags()[0].message);
        return plan;
    }

    plan.ok = true;
    plan.patched = std::move(patched);
    return plan;
}

} // namespace conair::fix
