#include "vm/regmap.h"

#include <algorithm>
#include <bit>

#include "support/diag.h"

namespace conair::vm {

RegMap::RegMap(const ir::Function &f)
{
    size_t values = f.numArgs();
    for (const auto &bb : f.blocks())
        values += bb->insts().size();
    // At most half full, so every probe sequence ends at an empty slot.
    const size_t cap = std::bit_ceil(std::max<size_t>(2 * values, 2));
    slots_.resize(cap);
    mask_ = cap - 1;
    shift_ = 64 - unsigned(std::countr_zero(cap));
    // Arguments first — argument i IS register i, an invariant both
    // engines rely on to seed callee frames without looking anything
    // up (see Interp::pushFrame).
    for (unsigned i = 0; i < f.numArgs(); ++i)
        insert(f.arg(i));
    for (const auto &bb : f.blocks())
        for (const auto &inst : bb->insts())
            if (inst->producesValue())
                insert(inst.get());
}

void
RegMap::insert(const ir::Value *v)
{
    size_t i = home(v);
    while (slots_[i].key)
        i = (i + 1) & mask_;
    slots_[i] = {v, count_++};
}

void
RegMap::unnumbered()
{
    fatal("RegMap: value not numbered in this function");
}

} // namespace conair::vm
