#include "vm/decode.h"

#include "support/diag.h"

namespace conair::vm {

using ir::Opcode;

bool
dirtiesWindow(const ir::Instruction &inst)
{
    switch (inst.opcode()) {
      case Opcode::Store:
        return true;
      case Opcode::Call: {
        if (inst.callee())
            return true;
        ir::Builtin b = inst.builtin();
        if (ir::builtinIsConAir(b))
            return false;
        // The §4.1 allowlist: compensation makes these re-executable.
        return b != ir::Builtin::Malloc && b != ir::Builtin::MutexLock &&
               b != ir::Builtin::MutexTimedLock;
      }
      default:
        return false;
    }
}

namespace {

/** Builds the per-function flat arrays. */
class FunctionDecoder
{
  public:
    FunctionDecoder(DecodedFunction &out, const RegMap &map,
                    const std::unordered_map<const ir::Function *,
                                             std::unique_ptr<DecodedFunction>>
                        &byFn)
        : out_(out), map_(map), byFn_(byFn)
    {}

    void
    run(const ir::Function &fn)
    {
        out_.fn = &fn;
        out_.regCount = map_.count();

        // Pass 1: number the blocks.
        uint32_t idx = 0;
        for (const auto &bb : fn.blocks())
            blockIndex_[bb.get()] = idx++;
        out_.blocks.resize(idx);

        // Pass 2: lower each block's instructions.
        idx = 0;
        for (const auto &bb : fn.blocks())
            decodeBlock(*bb, out_.blocks[idx++]);

        // Pass 3: group each block's leading phis into per-predecessor
        // parallel-copy lists (evaluated on block entry, not per step).
        idx = 0;
        for (const auto &bb : fn.blocks())
            decodePhiEdges(*bb, out_.blocks[idx++]);
    }

  private:
    OpRef
    refOf(const ir::Value *v)
    {
        using ir::ValueKind;
        switch (v->kind()) {
          case ValueKind::ConstInt: {
            auto *c = static_cast<const ir::ConstInt *>(v);
            return poolConst(RtValue::ofInt(c->value(), c->type()));
          }
          case ValueKind::ConstFloat:
            return poolConst(RtValue::ofFloat(
                static_cast<const ir::ConstFloat *>(v)->value()));
          case ValueKind::ConstNull:
            return poolConst(RtValue::ofPtr(Ptr{}));
          case ValueKind::GlobalAddr: {
            auto *g = static_cast<const ir::GlobalAddr *>(v);
            return poolConst(RtValue::ofPtr(
                Ptr{Ptr::Seg::Global, g->global()->id(), 0}));
          }
          case ValueKind::Argument:
          case ValueKind::Instruction:
            return map_.indexOf(v);
          case ValueKind::ConstStr:
          case ValueKind::FuncAddr:
            // Only valid as direct builtin operands; the executor reads
            // them through DecodedInst::src (and fatals on any other
            // use, exactly like the tree-walking getValue()).
            return kRawRef;
        }
        fatal("decode: unhandled value kind");
    }

    OpRef
    poolConst(RtValue v)
    {
        uint32_t id = uint32_t(out_.consts.size());
        if (id >= kConstRef - 1)
            fatal("decode: constant pool overflow");
        out_.consts.push_back(v);
        return kConstRef | id;
    }

    void
    decodeBlock(const ir::BasicBlock &bb, DecodedBlock &db)
    {
        db.phiBegin = uint32_t(out_.insts.size());
        bool in_phis = true;
        for (const auto &inst : bb.insts()) {
            if (in_phis && inst->opcode() == Opcode::Phi) {
                ++db.phiCount;
                if (!db.firstPhi)
                    db.firstPhi = inst.get();
                // A placeholder record: jumpTo skips past these, so it
                // only executes if a block with phis is entered without
                // a branch (the same trap the reference path reports).
                DecodedInst di;
                di.op = Opcode::Phi;
                di.src = inst.get();
                // The dst slot lets the block-transfer path pair each
                // phi with its parallel-copy entry (jumpToDecoded).
                di.hasDst = true;
                di.dst = map_.indexOf(inst.get());
                out_.insts.push_back(di);
                continue;
            }
            in_phis = false;
            out_.insts.push_back(decodeInst(*inst));
        }
        db.first = db.phiBegin + db.phiCount;
    }

    DecodedInst
    decodeInst(const ir::Instruction &inst)
    {
        DecodedInst di;
        di.op = inst.opcode();
        di.builtin = inst.builtin();
        di.type = inst.type();
        di.src = &inst;
        di.dirties = dirtiesWindow(inst);
        di.imm = inst.opcode() == Opcode::Alloca
                     ? inst.allocaSize()
                     : int64_t(inst.hintId());
        di.nOps = uint16_t(inst.numOperands());
        if (inst.producesValue()) {
            di.hasDst = true;
            di.dst = map_.indexOf(&inst);
        }
        if (di.nOps > 0)
            di.a = refOf(inst.operand(0));
        if (di.nOps > 1)
            di.b = refOf(inst.operand(1));
        if (di.nOps > 2) {
            di.extra = uint32_t(out_.extraOps.size());
            for (unsigned i = 2; i < di.nOps; ++i)
                out_.extraOps.push_back(refOf(inst.operand(i)));
        }
        if (inst.numBlockOps() > 0 && inst.opcode() != Opcode::Phi)
            di.t0 = blockIndex_.at(inst.blockOp(0));
        if (inst.numBlockOps() > 1 && inst.opcode() != Opcode::Phi)
            di.t1 = blockIndex_.at(inst.blockOp(1));
        if (inst.opcode() == Opcode::Call && inst.callee()) {
            di.callee = inst.callee();
            auto it = byFn_.find(inst.callee());
            if (it == byFn_.end())
                fatal("decode: call to a function outside the module");
            di.calleeDfn = it->second.get();
        }
        return di;
    }

    void
    decodePhiEdges(const ir::BasicBlock &bb, DecodedBlock &db)
    {
        if (db.phiCount == 0)
            return;
        db.edgeBegin = uint32_t(out_.phiEdges.size());
        // Collect the distinct predecessors named by the leading phis,
        // in first-appearance order (decode is deterministic).
        std::vector<const ir::BasicBlock *> preds;
        uint32_t seen = 0;
        for (const auto &inst : bb.insts()) {
            if (inst->opcode() != Opcode::Phi || seen++ == db.phiCount)
                break;
            for (unsigned i = 0; i < inst->numBlockOps(); ++i) {
                const ir::BasicBlock *p = inst->incomingBlock(i);
                bool known = false;
                for (const ir::BasicBlock *q : preds)
                    known |= q == p;
                if (!known)
                    preds.push_back(p);
            }
        }
        for (const ir::BasicBlock *pred : preds) {
            PhiEdge edge;
            edge.pred = blockIndex_.at(pred);
            edge.begin = uint32_t(out_.phiCopies.size());
            edge.count = 0;
            uint32_t n = 0;
            for (const auto &inst : bb.insts()) {
                if (inst->opcode() != Opcode::Phi || n++ == db.phiCount)
                    break;
                for (unsigned i = 0; i < inst->numBlockOps(); ++i) {
                    if (inst->incomingBlock(i) != pred)
                        continue;
                    out_.phiCopies.push_back(
                        {map_.indexOf(inst.get()),
                         refOf(inst->operand(i))});
                    ++edge.count;
                    break;
                }
            }
            // An edge list shorter than phiCount means some phi lacks
            // this predecessor; entry over that edge must trap exactly
            // like the reference path, so record the partial edge only
            // if complete and let the executor report the missing one.
            out_.phiEdges.push_back(edge);
        }
        db.edgeCount = uint32_t(out_.phiEdges.size()) - db.edgeBegin;
    }

    DecodedFunction &out_;
    const RegMap &map_;
    const std::unordered_map<const ir::Function *,
                             std::unique_ptr<DecodedFunction>> &byFn_;
    std::unordered_map<const ir::BasicBlock *, uint32_t> blockIndex_;
};

} // namespace

DecodedModule::DecodedModule(const ir::Module &m, RegMapCache &maps)
{
    // Create every shell first so call records can link cross-function
    // (including recursion and forward references).
    for (const auto &fn : m.functions())
        byFn_.emplace(fn.get(), std::make_unique<DecodedFunction>());
    for (const auto &fn : m.functions()) {
        DecodedFunction &dfn = *byFn_.at(fn.get());
        FunctionDecoder dec(dfn, maps.of(fn.get()), byFn_);
        dec.run(*fn);
        fuseFunction(dfn);
        totalInsts_ += dfn.insts.size();
        totalFused_ += dfn.fused.fusedHeads;
    }
}

const DecodedFunction *
DecodedModule::of(const ir::Function *fn) const
{
    auto it = byFn_.find(fn);
    if (it == byFn_.end())
        fatal("DecodedModule: unknown function");
    return it->second.get();
}

} // namespace conair::vm
