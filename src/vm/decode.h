/**
 * @file
 * The pre-decoding layer: lowers MiniIR functions into flat,
 * fixed-layout instruction arrays at Interp construction time.
 *
 * The tree-walking interpretation path resolves every operand through a
 * `switch (v->kind())` plus pointer-keyed hash lookups (RegMap) and
 * re-derives branch targets, callee metadata, and delay rules on every
 * execution.  Decoding hoists all of that work to construction:
 *
 *  - operands become dense register slots or constant-pool indices,
 *    with immediates materialised as ready-to-use RtValues;
 *  - branch targets become block indices into a flat array;
 *  - leading phis become per-predecessor parallel-copy lists evaluated
 *    on block entry (no per-step phi scanning);
 *  - call / builtin metadata (callee's decoded body, register count)
 *    is resolved once.
 *
 * The step loop then indexes arrays instead of chasing pointers and
 * hashing.  docs/VM_ENGINE.md documents the pipeline and the hot-path
 * invariants the executor relies on.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ir/module.h"
#include "vm/fuse.h"
#include "vm/regmap.h"
#include "vm/value.h"

namespace conair::vm {

struct DecodedFunction;

/**
 * An operand reference.  Values below kConstRef are dense register
 * indices into the frame's register file; values with the top bit set
 * index the function's constant pool; kRawRef marks operands that have
 * no runtime value (string / function constants, legal only as direct
 * builtin operands and resolved through DecodedInst::src).
 */
using OpRef = uint32_t;
inline constexpr OpRef kConstRef = 0x8000'0000u;
inline constexpr OpRef kRawRef = 0xFFFF'FFFFu;
inline constexpr uint32_t kNoBlock = 0xFFFF'FFFFu;

/** Would executing @p inst end the current idempotent window?  The
 *  VM's image of ca::destroysIdempotency, which chaos injection obeys
 *  (decode bakes it into DecodedInst::dirties).  Inline: every
 *  Reference step asks it. */
inline bool
dirtiesWindow(const ir::Instruction &inst)
{
    switch (inst.opcode()) {
      case ir::Opcode::Store:
        return true;
      case ir::Opcode::Call: {
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

/** One pre-decoded instruction: fixed layout, no pointer chasing. */
struct DecodedInst
{
    ir::Opcode op;
    ir::Builtin builtin = ir::Builtin::None;
    ir::Type type = ir::Type::Void; ///< result type (loads, casts, ...)
    bool hasDst = false;
    /** Executing this ends the thread's idempotent window
     *  (dirtiesWindow, evaluated at decode time). */
    bool dirties = false;
    uint16_t nOps = 0;
    uint32_t dst = 0;       ///< dense register slot when hasDst
    OpRef a = kRawRef;      ///< operand 0
    OpRef b = kRawRef;      ///< operand 1
    uint32_t extra = 0;     ///< operands 2.. live at extraOps[extra..]
    uint32_t t0 = 0, t1 = 0; ///< branch targets (block indices)
    int64_t imm = 0;        ///< alloca size / hint id
    const ir::Function *callee = nullptr;      ///< user call target
    const DecodedFunction *calleeDfn = nullptr; ///< its decoded body
    const ir::Instruction *src = nullptr; ///< tags, diagnostics, strings
};

/** One phi assignment on a control-flow edge: dst <- value. */
struct PhiCopy
{
    uint32_t dst;
    OpRef value;
};

/** The parallel-copy list a specific predecessor's edge executes. */
struct PhiEdge
{
    uint32_t pred;  ///< predecessor block index
    uint32_t begin; ///< into DecodedFunction::phiCopies
    uint32_t count;
};

/** A basic block in the flat layout. */
struct DecodedBlock
{
    uint32_t phiBegin = 0; ///< flat index of the first (phi) record
    uint32_t first = 0;    ///< flat index of the first executable inst
    uint32_t phiCount = 0; ///< leading phis (clock ticks charged on entry)
    uint32_t edgeBegin = 0, edgeCount = 0; ///< into phiEdges
    const ir::Instruction *firstPhi = nullptr; ///< diagnostics
};

/** A function lowered to flat arrays; entry block is index 0. */
struct DecodedFunction
{
    const ir::Function *fn = nullptr;
    uint32_t regCount = 0;
    std::vector<DecodedInst> insts;
    std::vector<DecodedBlock> blocks;
    std::vector<PhiEdge> phiEdges;
    std::vector<PhiCopy> phiCopies;
    std::vector<OpRef> extraOps;
    std::vector<RtValue> consts;

    /** Superinstruction overlay (fuse.h), built with the function. */
    FusedFunction fused;
};

/** All of a module's functions decoded and fused once, up front; a
 *  function of the module alone. */
class DecodedModule
{
  public:
    DecodedModule(const ir::Module &m, RegMapCache &maps);

    /** The decoded body of @p fn (never null for module functions). */
    const DecodedFunction *of(const ir::Function *fn) const;

    /** Total decoded instruction records (stats reporting). */
    uint64_t totalInsts() const { return totalInsts_; }

    /** Total two-component superinstructions formed at construction. */
    uint64_t totalFusedInsts() const { return totalFused_; }

  private:
    std::unordered_map<const ir::Function *,
                       std::unique_ptr<DecodedFunction>> byFn_;
    uint64_t totalInsts_ = 0;
    uint64_t totalFused_ = 0;
};

} // namespace conair::vm
