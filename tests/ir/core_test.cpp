#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/module.h"
#include "ir/printer.h"

namespace conair::ir {
namespace {

TEST(Module, ConstantsAreUniquedWhereExpected)
{
    Module m;
    EXPECT_EQ(m.getInt(7), m.getInt(7));
    EXPECT_NE(m.getInt(7), m.getInt(8));
    EXPECT_EQ(m.getNull(), m.getNull());
    EXPECT_EQ(m.getBool(true), m.getBool(true));
    EXPECT_NE(static_cast<Value *>(m.getBool(false)),
              static_cast<Value *>(m.getInt(0)));
}

TEST(Module, InternedStringsShareIds)
{
    Module m;
    ConstStr *a = m.getStr("hello");
    ConstStr *b = m.getStr("hello");
    ConstStr *c = m.getStr("other");
    EXPECT_EQ(a->id(), b->id());
    EXPECT_NE(a->id(), c->id());
    EXPECT_EQ(m.strAt(a->id()), "hello");
}

TEST(Module, GlobalLookup)
{
    Module m;
    Global *g = m.addGlobal("flag", Type::I64, 1);
    EXPECT_EQ(m.findGlobal("flag"), g);
    EXPECT_EQ(m.findGlobal("missing"), nullptr);
    EXPECT_FALSE(g->isMutex());
    Global *mu = m.addGlobal("lock", Type::I64, 1, true);
    EXPECT_TRUE(mu->isMutex());
}

TEST(UseList, TracksOperands)
{
    Module m;
    Function *f = m.addFunction("f", Type::I64);
    BasicBlock *bb = f->addBlock("entry");
    IRBuilder b(&m);
    b.setInsertAtEnd(bb);
    Instruction *x = b.binop(Opcode::Add, m.getInt(1), m.getInt(2));
    Instruction *y = b.binop(Opcode::Mul, x, x);
    EXPECT_EQ(x->uses().size(), 2u);
    EXPECT_EQ(x->uses()[0].user, y);

    Instruction *z = b.binop(Opcode::Sub, m.getInt(0), m.getInt(0));
    x->replaceAllUsesWith(z);
    EXPECT_TRUE(x->uses().empty());
    EXPECT_EQ(y->operand(0), z);
    EXPECT_EQ(y->operand(1), z);
    EXPECT_EQ(z->uses().size(), 2u);
    b.ret(y);
}

TEST(BasicBlock, InsertAndRemove)
{
    Module m;
    Function *f = m.addFunction("f", Type::Void);
    BasicBlock *bb = f->addBlock("entry");
    IRBuilder b(&m);
    b.setInsertAtEnd(bb);
    Instruction *first = b.binop(Opcode::Add, m.getInt(1), m.getInt(1));
    Instruction *last = b.ret();
    EXPECT_EQ(bb->size(), 2u);
    EXPECT_EQ(bb->terminator(), last);

    b.setInsertBefore(last);
    Instruction *mid = b.binop(Opcode::Mul, m.getInt(2), m.getInt(2));
    EXPECT_EQ(bb->next(first), mid);
    EXPECT_EQ(bb->prev(last), mid);
    EXPECT_EQ(bb->next(last), nullptr);
    EXPECT_EQ(bb->prev(first), nullptr);

    bb->erase(mid);
    EXPECT_EQ(bb->size(), 2u);
    EXPECT_EQ(bb->next(first), last);
}

TEST(Instruction, SuccessorsFollowTerminator)
{
    Module m;
    Function *f = m.addFunction("f", Type::Void);
    BasicBlock *a = f->addBlock("a");
    BasicBlock *t = f->addBlock("t");
    BasicBlock *e = f->addBlock("e");
    IRBuilder b(&m);
    b.setInsertAtEnd(a);
    Instruction *cond = b.cmp(Opcode::ICmpEq, m.getInt(1), m.getInt(1));
    b.condBr(cond, t, e);
    b.setInsertAtEnd(t);
    b.ret();
    b.setInsertAtEnd(e);
    b.ret();

    auto succs = a->successors();
    ASSERT_EQ(succs.size(), 2u);
    EXPECT_EQ(succs[0], t);
    EXPECT_EQ(succs[1], e);
    EXPECT_TRUE(t->successors().empty());

    auto preds = f->predecessorList();
    for (auto &[bb, p] : preds) {
        if (bb == t || bb == e) {
            ASSERT_EQ(p.size(), 1u);
            EXPECT_EQ(p[0], a);
        }
        if (bb == a) {
            EXPECT_TRUE(p.empty());
        }
    }
}

TEST(Function, FreshBlockNamesAreUnique)
{
    Module m;
    Function *f = m.addFunction("f", Type::Void);
    BasicBlock *a = f->addBlock("bb");
    BasicBlock *b2 = f->addBlock("bb");
    EXPECT_NE(a->name(), b2->name());
}

TEST(Phi, RemoveIncomingCompacts)
{
    Module m;
    Function *f = m.addFunction("f", Type::I64);
    BasicBlock *a = f->addBlock("a");
    BasicBlock *b2 = f->addBlock("b");
    BasicBlock *c = f->addBlock("c");
    IRBuilder b(&m);
    b.setInsertAtEnd(a);
    b.br(c);
    b.setInsertAtEnd(b2);
    b.br(c);
    b.setInsertAtEnd(c);
    Instruction *phi = b.phi(Type::I64);
    phi->addIncoming(m.getInt(1), a);
    phi->addIncoming(m.getInt(2), b2);
    b.ret(phi);

    phi->removeIncoming(a);
    ASSERT_EQ(phi->numOperands(), 1u);
    EXPECT_EQ(phi->incomingBlock(0), b2);
    EXPECT_EQ(static_cast<ConstInt *>(phi->operand(0))->value(), 2);
}

TEST(Builtins, NamesRoundTrip)
{
    for (auto b : {Builtin::ThreadCreate, Builtin::MutexTimedLock,
                   Builtin::CaCheckpoint, Builtin::CaPtrCheck,
                   Builtin::PrintStr, Builtin::AssertFail}) {
        EXPECT_EQ(builtinFromName(builtinName(b)), b);
    }
    EXPECT_EQ(builtinFromName("no_such_builtin"), Builtin::None);
}

TEST(Opcodes, NamesRoundTrip)
{
    for (auto op : {Opcode::Alloca, Opcode::Load, Opcode::Store,
                    Opcode::FCmpGe, Opcode::Zext, Opcode::SchedHint,
                    Opcode::Unreachable}) {
        Opcode back;
        ASSERT_TRUE(opcodeFromName(opcodeName(op), back));
        EXPECT_EQ(back, op);
    }
}

} // namespace
} // namespace conair::ir
