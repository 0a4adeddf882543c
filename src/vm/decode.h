/**
 * @file
 * The module image: everything about a MiniIR module that its runs
 * share, built once — each function's register map and its flat,
 * fixed-layout instruction arrays, plus the initial global cells.
 *
 * The tree-walking interpretation path resolves every operand through a
 * `switch (v->kind())` plus pointer-keyed hash lookups (RegMap) and
 * re-derives branch targets, callee metadata, and delay rules on every
 * execution.  Decoding hoists all of that work into the image:
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
    /** The callee's image entry; non-null exactly on user calls. */
    const DecodedFunction *calleeDfn = nullptr;
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

/** One function's image entry: its register map and its body lowered
 *  to flat arrays (entry block is index 0).  The Reference engine reads
 *  only `fn` and `map`; the Fused engine runs the arrays. */
struct DecodedFunction
{
    explicit DecodedFunction(const ir::Function &f) : fn(&f), map(f) {}

    const ir::Function *fn;
    RegMap map; ///< argument i is register i; map.count() sizes a frame
    std::vector<DecodedInst> insts;
    std::vector<DecodedBlock> blocks;
    std::vector<PhiEdge> phiEdges;
    std::vector<PhiCopy> phiCopies;
    std::vector<OpRef> extraOps;
    std::vector<RtValue> consts;

    /** Superinstruction overlay (fuse.h): one record per insts index,
     *  built with the function. */
    std::vector<FusedInst> fused;
};

/**
 * Everything about a module that does not change while it runs: every
 * function's image entry (decoded and fused up front) and the initial
 * global cells.  Immutable once built, so any number of threads may run
 * one image at the same time; the module must outlive it.
 */
class Image
{
  public:
    explicit Image(const ir::Module &m);
    Image(const Image &) = delete;
    Image &operator=(const Image &) = delete;

    /** @p fn's entry; fatal for a function outside the module. */
    const DecodedFunction &of(const ir::Function *fn) const;

    const ir::Module &module() const { return module_; }

    /** Initial cells of every global, indexed by Global::id().  Empty
     *  when they exceed kGuestMemoryBytes: such a module's runs trap
     *  before main(), so its cells are never built. */
    const std::vector<std::vector<RtValue>> &globals() const
    {
        return globals_;
    }

    /** Guest bytes the globals take, built or not. */
    uint64_t globalBytes() const { return globalBytes_; }

  private:
    const ir::Module &module_;
    std::unordered_map<const ir::Function *,
                       std::unique_ptr<DecodedFunction>> byFn_;
    std::vector<std::vector<RtValue>> globals_;
    uint64_t globalBytes_ = 0;
};

} // namespace conair::vm
