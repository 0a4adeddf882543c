/**
 * @file
 * The fusion table: which FusedOp the fusion pass chooses for each
 * instruction shape of docs/VM_ENGINE.md's fusion-rules table.  The
 * cross-engine differential only checks that every record runs
 * tick-identically, so a classifier that quietly stops choosing a
 * specialised record (a Cmp or a PtrAdd falling back to SoloCont, a
 * pair no longer forming) passes it while the fused burst loses
 * throughput; this file pins the choice at every index.
 */
#include <optional>
#include <string>
#include <vector>

#include "tests/vm/vm_test_util.h"
#include "vm/decode.h"

namespace conair::vm {
namespace {

using testutil::parseIR;

/** One line of @main: a block label (no op), or an instruction and the
 *  record it must fuse to. */
struct Line
{
    const char *text;
    std::optional<FusedOp> op;
    bool inl0 = false, inl1 = false; ///< branch edges applied inline
    std::optional<int64_t> imm = {}; ///< the ALU component's immediate
};

/** Nine phis in block `wide`: more than kMaxInlinePhi, so no edge into
 *  it is applied inline. */
std::vector<Line>
widePhis()
{
    static_assert(kMaxInlinePhi < 9);
    static const char *const kPhis[] = {
        "    %w0 = phi i64 [0, entry], [1, again]",
        "    %w1 = phi i64 [0, entry], [1, again]",
        "    %w2 = phi i64 [0, entry], [1, again]",
        "    %w3 = phi i64 [0, entry], [1, again]",
        "    %w4 = phi i64 [0, entry], [1, again]",
        "    %w5 = phi i64 [0, entry], [1, again]",
        "    %w6 = phi i64 [0, entry], [1, again]",
        "    %w7 = phi i64 [0, entry], [1, again]",
        "    %w8 = phi i64 [0, entry], [1, again]",
    };
    std::vector<Line> out;
    for (const char *p : kPhis)
        out.push_back({p, FusedOp::Solo}); // phi placeholder
    return out;
}

TEST(Fusion, EveryRuleChoosesItsRecord)
{
    using enum FusedOp;
    // The interior of each pair (the CondBr after a CmpBr, the Alu
    // after a LoadThenAlu, the Store after an AluThenStore) keeps its
    // own single-instruction record.
    std::vector<Line> lines = {
        {"entry:", {}},
        {"    %s = alloca 2", SoloCont},
        {"    %a = call @id(5)", Solo},
        {"    %b = add %a, %a", Alu},
        {"    %c = add %b, 3", Alu, false, false, 3},
        {"    %d = add 4, %c", Alu, false, false, 4}, // constant on the left
        {"    %e = sub 7, %d", SoloCont}, // not commutative: no swap
        {"    %q = sdiv %e, 2", Alu, false, false, 2},
        {"    %r = sdiv %e, %b", SoloCont}, // divisor may be zero
        {"    %z = srem %e, 0", SoloCont},  // traps on the handler
        {"    %h = fadd 0.5, 0.25", SoloCont},
        {"    %p = ptradd @g, 1", PtrAdd},
        {"    store %q, %p", Store},
        {"    %v = load i64, %p", LoadThenAlu, false, false, 1},
        {"    %u = add %v, 1", AluThenStore, false, false, 1},
        {"    store %u, %p", Store},
        {"    %t = load i64, %p", Load}, // an icmp follows: no pair
        {"    %j = icmp.sgt %t, 0", Cmp},
        // small's edge is inlined; wide has too many phis.
        {"    %k = icmp.slt %v, 10", CmpBr, true, false},
        {"    condbr %k, small, wide", CondBr, true, false},
        {"small:", {}},
        {"    %x = phi i64 [%v, entry]", Solo},
        {"    br join", Br, true},
        {"wide:", {}},
    };
    for (const Line &l : widePhis())
        lines.push_back(l);
    for (const Line &l : std::vector<Line>{
             {"    %m = icmp.eq %w0, 0", CmpBr, true, true},
             {"    condbr %m, again, join", CondBr, true, true},
             {"again:", {}},
             {"    br wide", Br, false},
             {"join:", {}},
             {"    %y = phi i64 [%x, small], [%w8, wide]", Solo},
             {"    ret %y", Solo},
         })
        lines.push_back(l);

    std::string text = "global @g : i64[4]\n"
                       "func @id(i64 %x) -> i64 {\n"
                       "entry:\n"
                       "    ret %x\n"
                       "}\n"
                       "func @main() -> i64 {\n";
    std::vector<const Line *> insts;
    for (const Line &l : lines) {
        text += std::string(l.text) + "\n";
        if (l.op)
            insts.push_back(&l);
    }
    text += "}\n";

    auto m = parseIR(text);
    ASSERT_TRUE(m);
    const Image image(*m);
    const DecodedFunction &dfn = image.of(m->findFunction("main"));
    ASSERT_EQ(dfn.fused.size(), insts.size());
    for (size_t i = 0; i < insts.size(); ++i) {
        const Line &want = *insts[i];
        const FusedInst &r = dfn.fused[i];
        SCOPED_TRACE(std::to_string(i) + ":" + want.text);
        EXPECT_EQ(int(r.op), int(*want.op));
        EXPECT_EQ(r.inl0, want.inl0);
        EXPECT_EQ(r.inl1, want.inl1);
        if (r.op == Alu || r.op == AluThenStore) {
            EXPECT_EQ(r.rc, want.imm.has_value());
            EXPECT_EQ(r.imm, want.imm.value_or(0));
        }
        if (r.op == LoadThenAlu) {
            EXPECT_EQ(r.rc2, want.imm.has_value());
            EXPECT_EQ(r.imm2, want.imm.value_or(0));
        }
    }

    // The callee's ret leaves the burst too.
    const DecodedFunction &id = image.of(m->findFunction("id"));
    ASSERT_EQ(id.fused.size(), 1u);
    EXPECT_EQ(int(id.fused[0].op), int(Solo));
}

} // namespace
} // namespace conair::vm
