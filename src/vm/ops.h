/**
 * @file
 * What every pure opcode computes, written once.  The pure opcodes are
 * ir::Opcode::Add through PtrAdd: each computes its result from its
 * operands alone and touches no memory, control flow or scheduler.
 *
 * Both engines execute a pure instruction through evalPure.  Each
 * passes its own operand fetch (the Reference engine resolves the IR
 * operand, the Fused engine the decoded OpRef), and the result goes
 * straight into the destination register.  The integer core below it
 * (intAlu, intCmp, ptrAdd) is what the fused records (fuse.h) call on
 * their pre-resolved operands.  So the engines differ in how they
 * fetch operands, never in what an opcode means;
 * tests/vm/ops_test.cpp pins that meaning with literal values.
 *
 * No guest operand reaches C++ undefined behaviour here:
 *  - integer arithmetic wraps (two's complement): INT64_MIN / -1 is
 *    INT64_MIN and x % -1 is 0; division and remainder by zero are
 *    guest traps, reported to the caller;
 *  - shift counts are taken modulo 64, and Shr is arithmetic;
 *  - FpToSi truncates toward zero, and NaN or a value outside
 *    [-2^63, 2^63) gives INT64_MIN (what x86-64's cvttsd2si returns);
 *  - a pointer offset wraps like Add.
 */
#pragma once

#include <cstdint>

#include "ir/instruction.h"
#include "vm/value.h"

/** Forces a function inline.  Each engine's operand fetch takes it: a
 *  fetch is called from every case of evalPure, and GCC 12 otherwise
 *  compiles it as an out-of-line call. */
#if defined(__GNUC__) || defined(__clang__)
#define CONAIR_ALWAYS_INLINE __attribute__((always_inline))
#else
#define CONAIR_ALWAYS_INLINE
#endif

namespace conair::vm {

/** Is @p op one of the pure opcodes evalPure computes? */
inline bool
isPureOp(ir::Opcode op)
{
    return op >= ir::Opcode::Add && op <= ir::Opcode::PtrAdd;
}

/** The integer binary opcodes (Add through Shr) on i64 payloads.
 *  @p b is never 0 for SDiv and SRem: evalPure traps first, and fusion
 *  fuses only a non-zero constant divisor. */
inline int64_t
intAlu(ir::Opcode op, int64_t a, int64_t b)
{
    using ir::Opcode;
    switch (op) {
      case Opcode::Add: return int64_t(uint64_t(a) + uint64_t(b));
      case Opcode::Sub: return int64_t(uint64_t(a) - uint64_t(b));
      case Opcode::Mul: return int64_t(uint64_t(a) * uint64_t(b));
      case Opcode::SDiv: return b == -1 ? int64_t(0 - uint64_t(a)) : a / b;
      case Opcode::SRem: return b == -1 ? 0 : a % b;
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Shl: return int64_t(uint64_t(a) << (uint64_t(b) & 63));
      case Opcode::Shr: return a >> (uint64_t(b) & 63);
      default: return 0; // not an integer binary opcode
    }
}

/** The integer compares (ICmpEq through ICmpSge).  Eq and Ne compare
 *  pointers when either side is one, payloads otherwise. */
inline bool
intCmp(ir::Opcode op, const RtValue &a, const RtValue &b)
{
    using ir::Opcode;
    switch (op) {
      case Opcode::ICmpEq:
      case Opcode::ICmpNe: {
        bool eq = (a.kind == ir::Type::Ptr || b.kind == ir::Type::Ptr)
                      ? a.p == b.p
                      : a.i == b.i;
        return op == Opcode::ICmpEq ? eq : !eq;
      }
      case Opcode::ICmpSlt: return a.i < b.i;
      case Opcode::ICmpSle: return a.i <= b.i;
      case Opcode::ICmpSgt: return a.i > b.i;
      case Opcode::ICmpSge: return a.i >= b.i;
      default: return false; // not an integer compare
    }
}

/** PtrAdd: @p p advanced by @p cells cells. */
inline RtValue
ptrAdd(RtValue p, int64_t cells)
{
    p.p.offset = intAlu(ir::Opcode::Add, p.p.offset, cells);
    return p;
}

/** FpToSi of @p x. */
inline int64_t
fpToSi(double x)
{
    // Exactly the doubles in [-2^63, 2^63) truncate into range; NaN
    // fails both compares.
    return x >= -0x1p63 && x < 0x1p63 ? int64_t(x) : INT64_MIN;
}

/**
 * Executes the pure opcode @p op into @p out, the destination
 * register.  @p fetch(i) yields operand i as an RtValue (or a
 * reference to one); operands are fetched at most once, and @p out is
 * written after every fetch.  Returns nullptr, or the message of the
 * guest trap the operands raise (@p out untouched).
 *
 * Each case passes its own opcode, a constant, to the integer core, so
 * the core's switch folds away and each case compiles to one inline
 * expression.
 */
template <class Fetch>
inline const char *
evalPure(ir::Opcode op, Fetch &&fetch, RtValue &out)
{
    using ir::Opcode;
    switch (op) {
      case Opcode::Add:
        out = RtValue::ofInt(intAlu(Opcode::Add, fetch(0).i, fetch(1).i));
        return nullptr;
      case Opcode::Sub:
        out = RtValue::ofInt(intAlu(Opcode::Sub, fetch(0).i, fetch(1).i));
        return nullptr;
      case Opcode::Mul:
        out = RtValue::ofInt(intAlu(Opcode::Mul, fetch(0).i, fetch(1).i));
        return nullptr;
      case Opcode::SDiv: {
        const int64_t d = fetch(1).i;
        if (d == 0)
            return "division by zero";
        out = RtValue::ofInt(intAlu(Opcode::SDiv, fetch(0).i, d));
        return nullptr;
      }
      case Opcode::SRem: {
        const int64_t d = fetch(1).i;
        if (d == 0)
            return "remainder by zero";
        out = RtValue::ofInt(intAlu(Opcode::SRem, fetch(0).i, d));
        return nullptr;
      }
      case Opcode::And:
        out = RtValue::ofInt(intAlu(Opcode::And, fetch(0).i, fetch(1).i));
        return nullptr;
      case Opcode::Or:
        out = RtValue::ofInt(intAlu(Opcode::Or, fetch(0).i, fetch(1).i));
        return nullptr;
      case Opcode::Xor:
        out = RtValue::ofInt(intAlu(Opcode::Xor, fetch(0).i, fetch(1).i));
        return nullptr;
      case Opcode::Shl:
        out = RtValue::ofInt(intAlu(Opcode::Shl, fetch(0).i, fetch(1).i));
        return nullptr;
      case Opcode::Shr:
        out = RtValue::ofInt(intAlu(Opcode::Shr, fetch(0).i, fetch(1).i));
        return nullptr;
      case Opcode::FAdd:
        out = RtValue::ofFloat(fetch(0).f + fetch(1).f);
        return nullptr;
      case Opcode::FSub:
        out = RtValue::ofFloat(fetch(0).f - fetch(1).f);
        return nullptr;
      case Opcode::FMul:
        out = RtValue::ofFloat(fetch(0).f * fetch(1).f);
        return nullptr;
      case Opcode::FDiv:
        out = RtValue::ofFloat(fetch(0).f / fetch(1).f);
        return nullptr;
      case Opcode::ICmpEq:
        out = RtValue::ofBool(intCmp(Opcode::ICmpEq, fetch(0), fetch(1)));
        return nullptr;
      case Opcode::ICmpNe:
        out = RtValue::ofBool(intCmp(Opcode::ICmpNe, fetch(0), fetch(1)));
        return nullptr;
      case Opcode::ICmpSlt:
        out = RtValue::ofBool(intCmp(Opcode::ICmpSlt, fetch(0), fetch(1)));
        return nullptr;
      case Opcode::ICmpSle:
        out = RtValue::ofBool(intCmp(Opcode::ICmpSle, fetch(0), fetch(1)));
        return nullptr;
      case Opcode::ICmpSgt:
        out = RtValue::ofBool(intCmp(Opcode::ICmpSgt, fetch(0), fetch(1)));
        return nullptr;
      case Opcode::ICmpSge:
        out = RtValue::ofBool(intCmp(Opcode::ICmpSge, fetch(0), fetch(1)));
        return nullptr;
      // Ordered compares: false when either side is NaN, except Ne.
      case Opcode::FCmpEq:
        out = RtValue::ofBool(fetch(0).f == fetch(1).f);
        return nullptr;
      case Opcode::FCmpNe:
        out = RtValue::ofBool(fetch(0).f != fetch(1).f);
        return nullptr;
      case Opcode::FCmpLt:
        out = RtValue::ofBool(fetch(0).f < fetch(1).f);
        return nullptr;
      case Opcode::FCmpLe:
        out = RtValue::ofBool(fetch(0).f <= fetch(1).f);
        return nullptr;
      case Opcode::FCmpGt:
        out = RtValue::ofBool(fetch(0).f > fetch(1).f);
        return nullptr;
      case Opcode::FCmpGe:
        out = RtValue::ofBool(fetch(0).f >= fetch(1).f);
        return nullptr;
      case Opcode::SiToFp:
        out = RtValue::ofFloat(double(fetch(0).i));
        return nullptr;
      case Opcode::FpToSi:
        out = RtValue::ofInt(fpToSi(fetch(0).f));
        return nullptr;
      case Opcode::Zext:
        out = RtValue::ofInt(fetch(0).i != 0 ? 1 : 0);
        return nullptr;
      case Opcode::PtrAdd:
        out = ptrAdd(fetch(0), fetch(1).i);
        return nullptr;
      default:
        return "unimplemented opcode";
    }
}

} // namespace conair::vm
