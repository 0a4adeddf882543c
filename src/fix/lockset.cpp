#include "fix/lockset.h"

#include <algorithm>

#include "analysis/callgraph.h"
#include "analysis/memory_class.h"

namespace conair::fix {

using ir::BasicBlock;
using ir::Builtin;
using ir::Function;
using ir::Global;
using ir::Instruction;
using ir::Opcode;

const Lockset LocksetAnalysis::empty_;

const Global *
lockOperand(const Instruction *inst)
{
    if (inst->opcode() != Opcode::Call ||
        inst->callee() != nullptr)
        return nullptr;
    Builtin b = inst->builtin();
    if (b != Builtin::MutexLock && b != Builtin::MutexUnlock &&
        b != Builtin::MutexTimedLock)
        return nullptr;
    return analysis::rootGlobal(inst->operand(0));
}

namespace {

Lockset
intersect(const Lockset &a, const Lockset &b)
{
    Lockset out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out),
                          [](const Global *x, const Global *y) {
                              return x->id() < y->id();
                          });
    return out;
}

void
insertLock(Lockset &s, const Global *g)
{
    auto it = std::lower_bound(s.begin(), s.end(), g,
                               [](const Global *x, const Global *y) {
                                   return x->id() < y->id();
                               });
    if (it == s.end() || *it != g)
        s.insert(it, g);
}

void
eraseLock(Lockset &s, const Global *g)
{
    auto it = std::find(s.begin(), s.end(), g);
    if (it != s.end())
        s.erase(it);
}

/** Per-function forward dataflow; top is modelled as "not yet seen". */
struct FuncFlow
{
    const Function *fn;
    // Block-entry locksets; presence in the map means "reached".
    std::unordered_map<const BasicBlock *, Lockset> blockIn;
};

} // namespace

LocksetAnalysis::LocksetAnalysis(const ir::Module &m)
{
    // Entry locksets: thread entries and main start empty; every other
    // function meets (intersects) the locksets of its call sites.
    // Fixpoint: entry sets only shrink, so iterate until stable.
    analysis::CallGraph cg(m);

    std::unordered_map<const Function *, bool> isRoot;
    if (const Function *mainFn = m.findFunction("main"))
        isRoot[mainFn] = true;
    for (const Function *f : cg.threadEntries())
        isRoot[f] = true;

    // "Unknown" entry sets are top; roots are bottom (empty).
    std::unordered_map<const Function *, bool> entryKnown;
    for (const auto &f : m.functions()) {
        if (isRoot.count(f.get())) {
            entry_[f.get()] = {};
            entryKnown[f.get()] = true;
        } else {
            entryKnown[f.get()] = false;
        }
    }

    // Locksets observed at each call site, refreshed per iteration.
    std::unordered_map<const Instruction *, Lockset> callsiteLocks;

    auto flowFunction = [&](const Function &f) {
        // Forward intersection dataflow over the CFG, seeded with the
        // function's entry lockset.  Deterministic: worklist in block
        // list order.
        std::unordered_map<const BasicBlock *, Lockset> in;
        std::unordered_map<const BasicBlock *, bool> reached;
        const BasicBlock *entryBB = f.entry();
        if (!entryBB)
            return;
        in[entryBB] = entry_[&f];
        reached[entryBB] = true;

        bool changed = true;
        while (changed) {
            changed = false;
            for (const auto &bbPtr : f.blocks()) {
                const BasicBlock *bb = bbPtr.get();
                if (!reached[bb])
                    continue;
                Lockset cur = in[bb];
                for (const auto &instPtr : bb->insts()) {
                    const Instruction *inst = instPtr.get();
                    at_[inst] = cur;
                    if (inst->opcode() == Opcode::Call &&
                        !inst->callee()) {
                        const Global *g = lockOperand(inst);
                        if (g && inst->builtin() == Builtin::MutexLock)
                            insertLock(cur, g);
                        else if (g && inst->builtin() ==
                                          Builtin::MutexUnlock)
                            eraseLock(cur, g);
                        // MutexTimedLock: may time out, never added.
                    } else if (inst->opcode() == Opcode::Call &&
                               inst->callee()) {
                        callsiteLocks[inst] = cur;
                    }
                }
                for (const BasicBlock *succ : bb->successors()) {
                    if (!reached[succ]) {
                        reached[succ] = true;
                        in[succ] = cur;
                        changed = true;
                    } else {
                        Lockset met = intersect(in[succ], cur);
                        if (met != in[succ]) {
                            in[succ] = met;
                            changed = true;
                        }
                    }
                }
            }
        }
    };

    // Outer fixpoint over entry locksets.
    bool stable = false;
    unsigned rounds = 0;
    while (!stable && rounds++ < 64) {
        stable = true;
        at_.clear();
        callsiteLocks.clear();
        for (const auto &f : m.functions())
            if (entryKnown[f.get()])
                flowFunction(*f);
        for (const auto &f : m.functions()) {
            if (isRoot.count(f.get()))
                continue;
            const auto &callers = cg.callersOf(f.get());
            bool any = false;
            Lockset met;
            for (const auto &edge : callers) {
                auto it = callsiteLocks.find(edge.site);
                if (it == callsiteLocks.end())
                    continue; // caller not (yet) analysed: treat as top
                if (!any) {
                    met = it->second;
                    any = true;
                } else {
                    met = intersect(met, it->second);
                }
            }
            if (!any)
                continue; // unreached function: entry set stays top
            if (!entryKnown[f.get()] || entry_[f.get()] != met) {
                entry_[f.get()] = met;
                entryKnown[f.get()] = true;
                stable = false;
            }
        }
    }
    // Functions never reached keep an empty (bottom-ish) entry set so
    // lookups stay total; they contribute no nested pairs below
    // because at_ holds no lockset for their instructions.
    for (const auto &f : m.functions())
        if (!entryKnown[f.get()])
            entry_[f.get()] = {};

    // Nested pairs, in deterministic module order.
    for (const auto &f : m.functions()) {
        for (const auto &bbPtr : f->blocks()) {
            for (const auto &instPtr : bbPtr->insts()) {
                const Instruction *inst = instPtr.get();
                if (inst->opcode() != Opcode::Call || inst->callee() ||
                    inst->builtin() != Builtin::MutexLock)
                    continue;
                const Global *inner = lockOperand(inst);
                if (!inner)
                    continue;
                auto it = at_.find(inst);
                if (it == at_.end())
                    continue;
                for (const Global *outer : it->second)
                    pairs_.push_back({outer, inner, f.get(), inst});
            }
        }
    }
}

const Lockset &
LocksetAnalysis::locksAt(const Instruction *inst) const
{
    auto it = at_.find(inst);
    return it == at_.end() ? empty_ : it->second;
}

bool
LocksetAnalysis::heldAt(const Instruction *inst,
                        const Global *mutex) const
{
    const Lockset &s = locksAt(inst);
    return std::find(s.begin(), s.end(), mutex) != s.end();
}

} // namespace conair::fix
