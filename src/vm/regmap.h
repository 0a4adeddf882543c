/**
 * @file
 * Dense virtual-register numbering per function.
 *
 * Each frame's register file is a flat vector indexed by these numbers —
 * the VM analogue of the machine register image that the paper's
 * setjmp/longjmp checkpoints save and restore.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "ir/function.h"

namespace conair::vm {

/**
 * Maps a function's value-producing instructions and arguments to
 * dense register indices: arguments first (argument i is register i),
 * then every value-producing instruction in block order.
 *
 * The reference engine resolves every operand and result through
 * indexOf(), so the map is one open-addressing table rather than a
 * node-based hash map: a power-of-two capacity of at least twice the
 * value count (so a probe always reaches an empty slot), a
 * multiplicative pointer hash, and linear probing.
 */
class RegMap
{
  public:
    explicit RegMap(const ir::Function &f);

    /** @p v's register; fatal when @p v is not numbered here. */
    uint32_t
    indexOf(const ir::Value *v) const
    {
        for (size_t i = home(v);; i = (i + 1) & mask_) {
            const Slot &s = slots_[i];
            if (s.key == v)
                return s.reg;
            if (!s.key)
                unnumbered();
        }
    }

    uint32_t count() const { return count_; }

  private:
    struct Slot
    {
        const ir::Value *key = nullptr;
        uint32_t reg = 0;
    };

    /** Fibonacci hashing: the top bits of the pointer times 2^64/phi. */
    size_t
    home(const ir::Value *v) const
    {
        return size_t((uint64_t(uintptr_t(v)) * 0x9E3779B97F4A7C15ull) >>
                      shift_);
    }

    void insert(const ir::Value *v);
    [[noreturn]] static void unnumbered();

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    unsigned shift_ = 63;
    uint32_t count_ = 0;
};

} // namespace conair::vm
