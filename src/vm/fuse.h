/**
 * @file
 * The superinstruction fusion layer: a decode-time peephole pass over
 * a DecodedFunction's flat instruction array that classifies every
 * instruction index into a FusedInst record the fused execution tier
 * (Interp::runBurstFused) dispatches through a dense jump table.
 *
 * Fusion never changes semantics — records either delegate to the
 * decoded handlers (Load/Store/Solo) or call the kernel (ops.h) with
 * the operand-resolution branches folded away (register indices and
 * immediates instead of OpRef tag checks).  Two-component records
 * (compare+branch, load+arith, arith+store) retire two DecodedInsts
 * per dispatch while charging the exact per-instruction tick, step,
 * and quantum accounting of stepwise execution; docs/VM_ENGINE.md
 * documents the rules and the tick-identity contract.
 *
 * Records are *per index and overlapping*: recs[i] is the best
 * superinstruction starting at instruction i, and the interior of a
 * two-component record (index i+1) still carries its own valid
 * single-component record.  Control may therefore land anywhere — a
 * branch target, a checkpoint resume, or a burst that ran out of
 * budget mid-pair — and continue correctly.
 */
#pragma once

#include <cstdint>

namespace conair::vm {

struct DecodedFunction;

/** Dispatch kinds of the fused tier (dense: the jump table indexes
 *  this enum directly). */
enum class FusedOp : uint8_t {
    Solo,     ///< execDecoded, then leave the burst (calls, builtins, ...)
    SoloCont, ///< execDecoded, stay in the burst (FP math, casts, alloca)
    Alu,      ///< d = a <sub> (rc ? imm : b): trap-free integer arith
    Cmp,      ///< d = bool(a <sub> b): integer/ptr compare
    CmpBr,    ///< Cmp immediately consumed by a CondBr (2 components)
    CondBr,   ///< branch on register a
    Br,       ///< unconditional branch to t0
    PtrAdd,   ///< d = a.ptr advanced by b cells
    Load,     ///< fast path, else execDecoded (faults, diag events)
    Store,    ///< fast path, else execDecoded (faults, diag events)
    LoadThenAlu,  ///< Load, then a trap-free integer op (2 components)
    AluThenStore, ///< trap-free integer op, then a Store (2 components)
};

inline constexpr unsigned kNumFusedOps = 12;

/**
 * One fused record.  Field use by kind:
 *  - Alu / AluThenStore comp1: d, a, b are dense register slots; when
 *    rc is set the second operand is the inline immediate imm; sub is
 *    the ir::Opcode of the operation (uint8_t to keep the record flat).
 *  - Cmp / CmpBr: a, b are raw OpRefs (register or constant pool,
 *    resolved with one branch); d is the result slot; sub the compare
 *    opcode; CmpBr adds the branch targets t0/t1.
 *  - CondBr: a is a raw OpRef, targets t0/t1.
 *  - Br: target t0.
 *  - PtrAdd: a, b raw OpRefs, d the result slot.
 *  - LoadThenAlu comp2: sub2/rc2/d2/a2/b2/imm2, same encoding as Alu.
 *  - Solo / SoloCont / Load / Store: everything comes from the
 *    underlying DecodedInst at the same index.
 *
 * Branch records (Br / CondBr / CmpBr) additionally carry the
 * *pre-resolved phi edge* for each target: when inl0 (resp. inl1) is
 * set, the copy list for the edge (this block -> t0/t1) starts at
 * phiCopies[e0] (resp. e1), is exactly blocks[target].phiCount long,
 * aligns with the target's phi order, and contains no kRawRef values —
 * all validated at fuse time, so the executor applies the parallel
 * copy inline with no edge scan and no trap path.  Targets whose edge
 * fails validation (or has more than kMaxInlinePhi copies) keep the
 * flag clear and go through the generic jumpToDecoded.
 */
struct FusedInst
{
    FusedOp op = FusedOp::Solo;
    uint8_t sub = 0;   ///< comp1 ir::Opcode (arith / compare kind)
    uint8_t sub2 = 0;  ///< comp2 ir::Opcode (LoadThenAlu)
    bool rc = false;   ///< comp1 second operand is the immediate
    bool rc2 = false;  ///< comp2 second operand is the immediate
    bool inl0 = false; ///< t0's phi edge is pre-resolved at e0
    bool inl1 = false; ///< t1's phi edge is pre-resolved at e1
    uint32_t d = 0, a = 0, b = 0;
    uint32_t d2 = 0, a2 = 0, b2 = 0;
    int64_t imm = 0;
    int64_t imm2 = 0;
    uint32_t t0 = 0, t1 = 0;
    uint32_t e0 = 0, e1 = 0; ///< phiCopies begin per target edge
};

/** Largest phi-copy list applied inline by the fused branch handlers
 *  (the executor's scratch is a fixed array of this many RtValues). */
inline constexpr uint32_t kMaxInlinePhi = 8;

/** Builds @p dfn's fusion overlay, one record per DecodedInst index
 *  (idempotent; replaces any previous overlay).  The Image constructor
 *  calls it for every function. */
void fuseFunction(DecodedFunction &dfn);

} // namespace conair::vm
