/**
 * @file
 * MiniIR type system.
 *
 * MiniIR is deliberately small: 64-bit integers, doubles, booleans
 * (compare results), and fat pointers.  Memory is cell-addressed (one
 * cell holds one value), so there is no sizeof/alignment machinery.
 */
#pragma once

#include <cstdint>
#include <string>

namespace conair::ir {

/** The scalar types a MiniIR value can have. */
enum class Type : uint8_t {
    Void, ///< no value (stores, calls to void functions, terminators)
    I1,   ///< boolean, produced by comparisons
    I64,  ///< 64-bit signed integer
    F64,  ///< IEEE double
    Ptr,  ///< fat pointer into global / heap / stack memory
};

/** Printable spelling of a type ("void", "i1", ...). */
const char *typeName(Type t);

/** Parses a type name back; returns false if @p s is not a type. */
bool typeFromName(const std::string &s, Type &out);

/**
 * The most cells one memory block (a global, an alloca, a malloc) may
 * hold: 2^24, the offset width of a packed cell address
 * (obs::packCellAddr).  Both parsers reject a larger size and the VM
 * traps a larger malloc, so no guest size reaches the host allocator
 * unchecked.
 */
inline constexpr int64_t kMaxBlockCells = int64_t(1) << 24;

} // namespace conair::ir
