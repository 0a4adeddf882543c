#include "vm/fuse.h"

#include <utility>

#include "vm/decode.h"

namespace conair::vm {

using ir::Opcode;

namespace {

/** Is @p r a dense register reference (not a constant, not raw)? */
inline bool
isReg(OpRef r)
{
    return r < kConstRef;
}

/** If @p r names an integer (I64/I1) constant-pool entry, yields its
 *  payload.  F64/Ptr constants stay un-specialised: their handlers
 *  read the full RtValue through the generic paths. */
inline bool
intConst(const DecodedFunction &dfn, OpRef r, int64_t &out)
{
    if (r == kRawRef || r < kConstRef)
        return false;
    const RtValue &v = dfn.consts[r & ~kConstRef];
    if (v.kind != ir::Type::I64 && v.kind != ir::Type::I1)
        return false;
    out = v.i;
    return true;
}

struct AluParts
{
    uint8_t sub = 0;
    bool rc = false;
    uint32_t d = 0, a = 0, b = 0;
    int64_t imm = 0;
};

/**
 * Classifies @p di as a trap-free integer ALU component: a register
 * destination, a register first operand (commutative ops accept the
 * constant on either side), and a register or integer-immediate second
 * operand.  SDiv/SRem qualify only with a non-zero immediate divisor:
 * a zero one traps, which the generic path reports.
 */
bool
classifyAlu(const DecodedFunction &dfn, const DecodedInst &di,
            AluParts &out)
{
    switch (di.op) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::SDiv:
      case Opcode::SRem:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
        break;
      default:
        return false;
    }
    if (!di.hasDst)
        return false;

    const bool commutes = di.op == Opcode::Add || di.op == Opcode::Mul ||
                          di.op == Opcode::And || di.op == Opcode::Or ||
                          di.op == Opcode::Xor;
    OpRef a = di.a, b = di.b;
    int64_t imm = 0;
    if (!isReg(a) && commutes && isReg(b) && intConst(dfn, a, imm))
        std::swap(a, b); // fold the constant into the immediate slot
    if (!isReg(a))
        return false;

    out.sub = uint8_t(di.op);
    out.d = di.dst;
    out.a = a;
    if (isReg(b)) {
        if (di.op == Opcode::SDiv || di.op == Opcode::SRem)
            return false; // divisor value unknown: may trap
        out.rc = false;
        out.b = b;
        return true;
    }
    if (!intConst(dfn, b, imm))
        return false;
    if ((di.op == Opcode::SDiv || di.op == Opcode::SRem) && imm == 0)
        return false;
    out.rc = true;
    out.imm = imm;
    return true;
}

/**
 * Pre-resolves the phi edge (@p pred -> @p target) for inline
 * application by the fused branch handlers: the edge must exist, cover
 * every phi of the target in phi order, fit the executor's fixed
 * scratch (kMaxInlinePhi), and reference only register/constant values.
 * On success @p ebegin is the edge's first index into dfn.phiCopies.
 * Phi-less targets always resolve (empty copy list).
 */
bool
resolveInlineEdge(const DecodedFunction &dfn, uint32_t pred,
                  uint32_t target, uint32_t &ebegin)
{
    const DecodedBlock &db = dfn.blocks[target];
    ebegin = 0;
    if (db.phiCount == 0)
        return true;
    if (db.phiCount > kMaxInlinePhi)
        return false;
    const PhiEdge *edge = nullptr;
    for (uint32_t i = 0; i < db.edgeCount; ++i) {
        const PhiEdge &e = dfn.phiEdges[db.edgeBegin + i];
        if (e.pred == pred) {
            edge = &e;
            break;
        }
    }
    if (!edge || edge->count != db.phiCount)
        return false;
    for (uint32_t k = 0; k < db.phiCount; ++k) {
        const PhiCopy &c = dfn.phiCopies[edge->begin + k];
        if (c.dst != dfn.insts[db.phiBegin + k].dst ||
            c.value == kRawRef)
            return false;
    }
    ebegin = edge->begin;
    return true;
}

/** The best record starting at index @p i of @p bi's body. */
FusedInst
classify(const DecodedFunction &dfn, uint32_t i, uint32_t blockEnd)
{
    const DecodedInst &di = dfn.insts[i];
    const bool hasNext = i + 1 < blockEnd;
    FusedInst r;

    AluParts alu;
    if (classifyAlu(dfn, di, alu)) {
        r.sub = alu.sub;
        r.rc = alu.rc;
        r.d = alu.d;
        r.a = alu.a;
        r.b = alu.b;
        r.imm = alu.imm;
        // arith+store: the following Store writes this result.  The
        // store component is fully delegated, so its address form does
        // not matter.
        if (hasNext) {
            const DecodedInst &nx = dfn.insts[i + 1];
            if (nx.op == Opcode::Store && nx.a == di.dst) {
                r.op = FusedOp::AluThenStore;
                return r;
            }
        }
        r.op = FusedOp::Alu;
        return r;
    }

    switch (di.op) {
      case Opcode::ICmpEq:
      case Opcode::ICmpNe:
      case Opcode::ICmpSlt:
      case Opcode::ICmpSle:
      case Opcode::ICmpSgt:
      case Opcode::ICmpSge: {
        if (di.a == kRawRef || di.b == kRawRef || !di.hasDst)
            break; // invalid operands: let the generic path diagnose
        r.sub = uint8_t(di.op);
        r.d = di.dst;
        r.a = di.a;
        r.b = di.b;
        // compare+branch: the canonical loop-head pair.
        if (hasNext) {
            const DecodedInst &nx = dfn.insts[i + 1];
            if (nx.op == Opcode::CondBr && nx.a == di.dst) {
                r.op = FusedOp::CmpBr;
                r.t0 = nx.t0;
                r.t1 = nx.t1;
                return r;
            }
        }
        r.op = FusedOp::Cmp;
        return r;
      }
      case Opcode::PtrAdd:
        if (di.a == kRawRef || di.b == kRawRef || !di.hasDst)
            break;
        r.op = FusedOp::PtrAdd;
        r.d = di.dst;
        r.a = di.a;
        r.b = di.b;
        return r;
      case Opcode::Load: {
        // load+arith: the arithmetic component runs strictly after the
        // (fallible, fully delegated) load, so any adjacent trap-free
        // ALU op fuses — no dataflow requirement.
        if (hasNext) {
            AluParts alu2;
            if (classifyAlu(dfn, dfn.insts[i + 1], alu2)) {
                r.op = FusedOp::LoadThenAlu;
                r.sub2 = alu2.sub;
                r.rc2 = alu2.rc;
                r.d2 = alu2.d;
                r.a2 = alu2.a;
                r.b2 = alu2.b;
                r.imm2 = alu2.imm;
                return r;
            }
        }
        r.op = FusedOp::Load;
        return r;
      }
      case Opcode::Store:
        r.op = FusedOp::Store;
        return r;
      case Opcode::Br:
        r.op = FusedOp::Br;
        r.t0 = di.t0;
        return r;
      case Opcode::CondBr:
        if (di.a == kRawRef)
            break;
        r.op = FusedOp::CondBr;
        r.a = di.a;
        r.t0 = di.t0;
        r.t1 = di.t1;
        return r;
      default:
        break;
    }
    // The rest runs its execDecoded handler.  Calls, returns, hints,
    // unreachable, phis and branches with unusable operands leave the
    // burst (Solo): they can switch frames or consult the scheduler, so
    // the outer loop re-checks the full stepwise conditions.  The rest
    // (alloca, FP math, casts, integer ops whose operands fit no record
    // above) continues it (SoloCont).
    r.op = FusedOp::Solo;
    if (di.op != Opcode::Call && di.op != Opcode::Ret &&
        di.op != Opcode::SchedHint && di.op != Opcode::Unreachable &&
        di.op != Opcode::Phi && di.op != Opcode::Br &&
        di.op != Opcode::CondBr)
        r.op = FusedOp::SoloCont;
    return r;
}

} // namespace

void
fuseFunction(DecodedFunction &dfn)
{
    std::vector<FusedInst> recs(dfn.insts.size());

    for (uint32_t bi = 0; bi < dfn.blocks.size(); ++bi) {
        const DecodedBlock &db = dfn.blocks[bi];
        const uint32_t blockEnd = bi + 1 < dfn.blocks.size()
                                      ? dfn.blocks[bi + 1].phiBegin
                                      : uint32_t(dfn.insts.size());
        // Phi placeholders: only reachable when a block with phis is
        // entered without a branch; Solo delegates to the generic path,
        // which reports that exact trap.
        for (uint32_t i = db.phiBegin; i < db.first; ++i)
            recs[i].op = FusedOp::Solo;
        for (uint32_t i = db.first; i < blockEnd; ++i) {
            FusedInst &r = recs[i];
            r = classify(dfn, i, blockEnd);
            // Branches pre-resolve their targets' phi edges so the
            // handlers can skip the edge scan (predecessor == bi here).
            if (r.op == FusedOp::Br) {
                r.inl0 = resolveInlineEdge(dfn, bi, r.t0, r.e0);
            } else if (r.op == FusedOp::CondBr ||
                       r.op == FusedOp::CmpBr) {
                r.inl0 = resolveInlineEdge(dfn, bi, r.t0, r.e0);
                r.inl1 = resolveInlineEdge(dfn, bi, r.t1, r.e1);
            }
        }
    }
    dfn.fused = std::move(recs);
}

} // namespace conair::vm
