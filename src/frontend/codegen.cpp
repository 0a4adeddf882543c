#include "frontend/codegen.h"

#include <unordered_map>
#include <vector>

#include "ir/builder.h"
#include "support/str.h"

namespace conair::fe {

using ir::BasicBlock;
using ir::Builtin;
using ir::Function;
using ir::Global;
using ir::Instruction;
using ir::IRBuilder;
using ir::Opcode;
using ir::Value;

namespace {

/** A typed IR value as the expression generator hands them around. */
struct TypedValue
{
    Value *value = nullptr;
    TypeRef type;
};

/** Where a named variable lives. */
struct VarInfo
{
    TypeRef type;        ///< element type for arrays
    bool isArray = false;
    bool isGlobal = false;
    bool isMutex = false;
    Value *addr = nullptr; ///< alloca result or GlobalAddr constant
};

ir::Type
lowerType(const TypeRef &t)
{
    if (t.isPointer())
        return ir::Type::Ptr;
    switch (t.base) {
      case TypeRef::Base::Int: return ir::Type::I64;
      case TypeRef::Base::Double: return ir::Type::F64;
      case TypeRef::Base::Void: return ir::Type::Void;
    }
    return ir::Type::I64;
}

class Codegen
{
  public:
    Codegen(const Program &prog, DiagEngine &diags,
            const std::string &module_name)
        : prog_(prog), diags_(diags),
          module_(std::make_unique<ir::Module>(module_name)),
          builder_(module_.get())
    {}

    std::unique_ptr<ir::Module>
    run()
    {
        declareGlobals();
        declareFunctions();
        if (diags_.hasErrors())
            return nullptr;
        for (const auto &fn : prog_.functions)
            genFunction(*fn);
        if (diags_.hasErrors())
            return nullptr;
        return std::move(module_);
    }

  private:
    void
    err(SrcLoc loc, const std::string &msg)
    {
        diags_.error(loc, msg);
    }

    //
    // Declarations.
    //

    void
    declareGlobals()
    {
        for (const GlobalDecl &g : prog_.globals) {
            if (globals_.count(g.name)) {
                err(g.loc, "duplicate global '" + g.name + "'");
                continue;
            }
            if (g.isMutex) {
                Global *ir_g =
                    module_->addGlobal(g.name, ir::Type::I64, 1, true);
                globals_[g.name] = {TypeRef{}, false, true, true,
                                    module_->getGlobalAddr(ir_g)};
                continue;
            }
            int64_t size = g.arraySize > 0 ? g.arraySize : 1;
            ir::Type elem = lowerType(g.type);
            if (elem == ir::Type::Void) {
                err(g.loc, "global cannot have void type");
                continue;
            }
            Global *ir_g = module_->addGlobal(g.name, elem, size, false);
            if (g.hasInit) {
                if (elem == ir::Type::F64)
                    ir_g->setInitFp(g.initFp);
                else
                    ir_g->setInitInt(g.initInt);
            }
            globals_[g.name] = {g.type, g.arraySize > 0, true, false,
                                module_->getGlobalAddr(ir_g)};
        }
    }

    void
    declareFunctions()
    {
        for (const auto &fn : prog_.functions) {
            if (module_->findFunction(fn->name)) {
                err(fn->loc, "duplicate function '" + fn->name + "'");
                continue;
            }
            Function *f =
                module_->addFunction(fn->name, lowerType(fn->returnType));
            for (const Param &p : fn->params)
                f->addArg(lowerType(p.type), p.name);
        }
    }

    //
    // Function bodies.
    //

    void
    genFunction(const FuncDecl &fn)
    {
        curFn_ = module_->findFunction(fn.name);
        curDecl_ = &fn;
        BasicBlock *entry = curFn_->addBlock("entry");
        builder_.setInsertAtEnd(entry);
        scopes_.clear();
        scopes_.emplace_back();
        loops_.clear();

        for (unsigned i = 0; i < fn.params.size(); ++i) {
            const Param &p = fn.params[i];
            builder_.setLoc(p.loc);
            Instruction *slot = builder_.alloca_(1);
            builder_.store(curFn_->arg(i), slot);
            scopes_.back()[p.name] = {p.type, false, false, false, slot};
        }

        genStmt(*fn.body);

        // Implicit return at a fall-through function end.
        if (!builder_.insertBlock()->hasTerminator())
            emitDefaultReturn();
        curFn_ = nullptr;
        curDecl_ = nullptr;
    }

    void
    emitDefaultReturn()
    {
        switch (curFn_->returnType()) {
          case ir::Type::Void:
            builder_.ret();
            break;
          case ir::Type::F64:
            builder_.ret(module_->getFloat(0.0));
            break;
          case ir::Type::Ptr:
            builder_.ret(module_->getNull());
            break;
          default:
            builder_.ret(module_->getInt(0));
            break;
        }
    }

    VarInfo *
    lookup(const std::string &name)
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            auto found = it->find(name);
            if (found != it->end())
                return &found->second;
        }
        auto g = globals_.find(name);
        return g == globals_.end() ? nullptr : &g->second;
    }

    //
    // Statements.
    //

    void
    genStmt(const Stmt &s)
    {
        builder_.setLoc(s.loc);
        switch (s.kind) {
          case StmtKind::Block: {
            scopes_.emplace_back();
            for (const auto &kid : s.kids)
                genStmt(*kid);
            scopes_.pop_back();
            break;
          }
          case StmtKind::VarDecl:
            genVarDecl(s);
            break;
          case StmtKind::ExprStmt:
            genValue(*s.expr);
            break;
          case StmtKind::If:
            genIf(s);
            break;
          case StmtKind::While:
            genWhile(s);
            break;
          case StmtKind::For:
            genFor(s);
            break;
          case StmtKind::Return: {
            if (s.expr) {
                TypedValue v = genValue(*s.expr);
                TypeRef want = curDecl_->returnType;
                v = convert(v, want, s.loc);
                builder_.ret(v.value);
            } else {
                if (curFn_->returnType() != ir::Type::Void)
                    err(s.loc, "non-void function must return a value");
                builder_.ret();
            }
            startDeadBlock();
            break;
          }
          case StmtKind::Break: {
            if (loops_.empty()) {
                err(s.loc, "'break' outside a loop");
                break;
            }
            builder_.br(loops_.back().breakTarget);
            startDeadBlock();
            break;
          }
          case StmtKind::Continue: {
            if (loops_.empty()) {
                err(s.loc, "'continue' outside a loop");
                break;
            }
            builder_.br(loops_.back().continueTarget);
            startDeadBlock();
            break;
          }
        }
    }

    /** After a ret/break/continue: park codegen in an orphan block. */
    void
    startDeadBlock()
    {
        BasicBlock *dead = curFn_->addBlock("dead");
        builder_.setInsertAtEnd(dead);
    }

    void
    genVarDecl(const Stmt &s)
    {
        if (scopes_.back().count(s.text)) {
            err(s.loc, "redeclaration of '" + s.text + "'");
            return;
        }
        if (s.declType.isVoid()) {
            err(s.loc, "variable cannot have void type");
            return;
        }
        int64_t cells = s.arraySize > 0 ? s.arraySize : 1;
        Instruction *slot = builder_.alloca_(cells);
        VarInfo info{s.declType, s.arraySize > 0, false, false, slot};
        if (s.expr) {
            if (info.isArray) {
                err(s.loc, "array initialisers are not supported");
            } else {
                TypedValue v = genValue(*s.expr);
                v = convert(v, s.declType, s.loc);
                builder_.store(v.value, slot);
            }
        } else if (!info.isArray) {
            // Zero-initialise scalars: MiniC has no uninitialised reads.
            builder_.store(zeroOf(s.declType), slot);
        }
        scopes_.back()[s.text] = info;
    }

    Value *
    zeroOf(const TypeRef &t)
    {
        if (t.isPointer())
            return module_->getNull();
        if (t.isDouble())
            return module_->getFloat(0.0);
        return module_->getInt(0);
    }

    void
    genIf(const Stmt &s)
    {
        Value *cond = genCond(*s.expr);
        BasicBlock *then_bb = curFn_->addBlock("if.then");
        BasicBlock *merge = curFn_->addBlock("if.end");
        BasicBlock *else_bb =
            s.kids.size() > 1 ? curFn_->addBlock("if.else") : merge;
        builder_.condBr(cond, then_bb, else_bb);

        builder_.setInsertAtEnd(then_bb);
        genStmt(*s.kids[0]);
        if (!builder_.insertBlock()->hasTerminator())
            builder_.br(merge);

        if (s.kids.size() > 1) {
            builder_.setInsertAtEnd(else_bb);
            genStmt(*s.kids[1]);
            if (!builder_.insertBlock()->hasTerminator())
                builder_.br(merge);
        }
        builder_.setInsertAtEnd(merge);
    }

    void
    genWhile(const Stmt &s)
    {
        BasicBlock *head = curFn_->addBlock("while.head");
        BasicBlock *body = curFn_->addBlock("while.body");
        BasicBlock *exit = curFn_->addBlock("while.end");
        builder_.br(head);
        builder_.setInsertAtEnd(head);
        Value *cond = genCond(*s.expr);
        builder_.condBr(cond, body, exit);

        loops_.push_back({exit, head});
        builder_.setInsertAtEnd(body);
        genStmt(*s.kids[0]);
        if (!builder_.insertBlock()->hasTerminator())
            builder_.br(head);
        loops_.pop_back();
        builder_.setInsertAtEnd(exit);
    }

    void
    genFor(const Stmt &s)
    {
        scopes_.emplace_back();
        if (s.forInit)
            genStmt(*s.forInit);
        BasicBlock *head = curFn_->addBlock("for.head");
        BasicBlock *body = curFn_->addBlock("for.body");
        BasicBlock *step = curFn_->addBlock("for.step");
        BasicBlock *exit = curFn_->addBlock("for.end");
        builder_.br(head);
        builder_.setInsertAtEnd(head);
        if (s.expr) {
            Value *cond = genCond(*s.expr);
            builder_.condBr(cond, body, exit);
        } else {
            builder_.br(body);
        }

        loops_.push_back({exit, step});
        builder_.setInsertAtEnd(body);
        genStmt(*s.kids[0]);
        if (!builder_.insertBlock()->hasTerminator())
            builder_.br(step);
        loops_.pop_back();

        builder_.setInsertAtEnd(step);
        if (s.forStep)
            genValue(*s.forStep);
        builder_.br(head);
        builder_.setInsertAtEnd(exit);
        scopes_.pop_back();
    }

    //
    // Conversions.
    //

    TypedValue
    convert(TypedValue v, const TypeRef &want, SrcLoc loc)
    {
        if (v.type == want)
            return v;
        if (v.type.isInt() && want.isDouble())
            return {builder_.siToFp(v.value), want};
        if (v.type.isDouble() && want.isInt())
            return {builder_.fpToSi(v.value), want};
        if (v.type.isPointer() && want.isPointer())
            return {v.value, want}; // untyped-pointer compatibility
        if (v.type.isInt() && want.isPointer()) {
            // Only the literal 0 converts to a pointer (null).
            if (v.value->kind() == ir::ValueKind::ConstInt &&
                static_cast<ir::ConstInt *>(v.value)->value() == 0)
                return {module_->getNull(), want};
        }
        err(loc, strfmt("cannot convert %s to %s", v.type.str().c_str(),
                        want.str().c_str()));
        return {zeroOf(want), want};
    }

    //
    // Conditions (i1 results, short-circuit logic).
    //

    Value *
    genCond(const Expr &e)
    {
        builder_.setLoc(e.loc);
        if (e.kind == ExprKind::Unary && e.text == "!") {
            Value *inner = genCond(*e.kids[0]);
            return builder_.cmp(Opcode::ICmpEq, inner,
                                module_->getBool(false));
        }
        if (e.kind == ExprKind::Binary &&
            (e.text == "&&" || e.text == "||")) {
            // Short-circuit through a temporary slot; mem2reg turns the
            // loads/stores into a phi.
            Instruction *slot = builder_.alloca_(1);
            bool is_and = e.text == "&&";
            BasicBlock *rhs_bb = curFn_->addBlock("sc.rhs");
            BasicBlock *merge = curFn_->addBlock("sc.end");

            Value *lhs = genCond(*e.kids[0]);
            builder_.store(builder_.zext(lhs), slot);
            if (is_and)
                builder_.condBr(lhs, rhs_bb, merge);
            else
                builder_.condBr(lhs, merge, rhs_bb);

            builder_.setInsertAtEnd(rhs_bb);
            Value *rhs = genCond(*e.kids[1]);
            builder_.store(builder_.zext(rhs), slot);
            builder_.br(merge);

            builder_.setInsertAtEnd(merge);
            Value *merged = builder_.load(ir::Type::I64, slot);
            return builder_.cmp(Opcode::ICmpNe, merged, module_->getInt(0));
        }
        if (e.kind == ExprKind::Binary) {
            Opcode op;
            bool is_cmp = true;
            if (e.text == "==")
                op = Opcode::ICmpEq;
            else if (e.text == "!=")
                op = Opcode::ICmpNe;
            else if (e.text == "<")
                op = Opcode::ICmpSlt;
            else if (e.text == "<=")
                op = Opcode::ICmpSle;
            else if (e.text == ">")
                op = Opcode::ICmpSgt;
            else if (e.text == ">=")
                op = Opcode::ICmpSge;
            else
                is_cmp = false;
            if (is_cmp)
                return genComparison(e, op);
        }
        // Fallback: truthiness of the value.
        TypedValue v = genValue(e);
        builder_.setLoc(e.loc);
        if (v.type.isPointer())
            return builder_.cmp(Opcode::ICmpNe, v.value,
                                module_->getNull());
        if (v.type.isDouble())
            return builder_.cmp(Opcode::FCmpNe, v.value,
                                module_->getFloat(0.0));
        return builder_.cmp(Opcode::ICmpNe, v.value, module_->getInt(0));
    }

    Value *
    genComparison(const Expr &e, Opcode int_op)
    {
        TypedValue lhs = genValue(*e.kids[0]);
        TypedValue rhs = genValue(*e.kids[1]);
        builder_.setLoc(e.loc);
        if (lhs.type.isPointer() || rhs.type.isPointer()) {
            if (int_op != Opcode::ICmpEq && int_op != Opcode::ICmpNe) {
                err(e.loc, "pointers only support == and != comparison");
                return module_->getBool(false);
            }
            lhs = convert(lhs, lhs.type.isPointer() ? lhs.type : rhs.type,
                          e.loc);
            rhs = convert(rhs, lhs.type, e.loc);
            return builder_.cmp(int_op, lhs.value, rhs.value);
        }
        if (lhs.type.isDouble() || rhs.type.isDouble()) {
            TypeRef d{TypeRef::Base::Double, 0};
            lhs = convert(lhs, d, e.loc);
            rhs = convert(rhs, d, e.loc);
            Opcode fop;
            switch (int_op) {
              case Opcode::ICmpEq: fop = Opcode::FCmpEq; break;
              case Opcode::ICmpNe: fop = Opcode::FCmpNe; break;
              case Opcode::ICmpSlt: fop = Opcode::FCmpLt; break;
              case Opcode::ICmpSle: fop = Opcode::FCmpLe; break;
              case Opcode::ICmpSgt: fop = Opcode::FCmpGt; break;
              default: fop = Opcode::FCmpGe; break;
            }
            return builder_.cmp(fop, lhs.value, rhs.value);
        }
        return builder_.cmp(int_op, lhs.value, rhs.value);
    }

    //
    // L-values.
    //

    /** Generates the address of an assignable expression. */
    TypedValue
    genLValue(const Expr &e)
    {
        builder_.setLoc(e.loc);
        switch (e.kind) {
          case ExprKind::Ident: {
            VarInfo *var = lookup(e.text);
            if (!var) {
                err(e.loc, "unknown variable '" + e.text + "'");
                return {module_->getNull(), TypeRef{}};
            }
            if (var->isMutex) {
                err(e.loc, "a mutex cannot be assigned");
                return {module_->getNull(), TypeRef{}};
            }
            if (var->isArray) {
                err(e.loc, "an array cannot be assigned as a whole");
                return {module_->getNull(), TypeRef{}};
            }
            return {var->addr, var->type};
          }
          case ExprKind::Deref: {
            TypedValue p = genValue(*e.kids[0]);
            if (!p.type.isPointer()) {
                err(e.loc, "cannot dereference non-pointer");
                return {module_->getNull(), TypeRef{}};
            }
            return {p.value, p.type.pointee()};
          }
          case ExprKind::Index: {
            return genElementAddr(e);
          }
          default:
            err(e.loc, "expression is not assignable");
            return {module_->getNull(), TypeRef{}};
        }
    }

    /** Address of a[i]; also used for reading. */
    TypedValue
    genElementAddr(const Expr &e)
    {
        TypedValue base;
        const Expr &arr = *e.kids[0];
        if (arr.kind == ExprKind::Ident) {
            VarInfo *var = lookup(arr.text);
            if (!var) {
                err(arr.loc, "unknown variable '" + arr.text + "'");
                return {module_->getNull(), TypeRef{}};
            }
            if (var->isArray) {
                base = {var->addr, var->type}; // decayed element pointer
            } else {
                base = genValue(arr);
                if (!base.type.isPointer()) {
                    err(e.loc, "subscripted value is not array/pointer");
                    return {module_->getNull(), TypeRef{}};
                }
                base.type = base.type.pointee();
            }
        } else {
            base = genValue(arr);
            if (!base.type.isPointer()) {
                err(e.loc, "subscripted value is not array/pointer");
                return {module_->getNull(), TypeRef{}};
            }
            base.type = base.type.pointee();
        }
        TypedValue idx = genValue(*e.kids[1]);
        idx = convert(idx, TypeRef{TypeRef::Base::Int, 0}, e.loc);
        builder_.setLoc(e.loc);
        Instruction *addr = builder_.ptrAdd(base.value, idx.value);
        return {addr, base.type};
    }

    //
    // R-values.
    //

    TypedValue
    genValue(const Expr &e)
    {
        builder_.setLoc(e.loc);
        switch (e.kind) {
          case ExprKind::IntLit:
            return {module_->getInt(e.ival), TypeRef{TypeRef::Base::Int, 0}};
          case ExprKind::FloatLit:
            return {module_->getFloat(e.fval),
                    TypeRef{TypeRef::Base::Double, 0}};
          case ExprKind::StrLit:
            err(e.loc, "string literals are only allowed in print()");
            return {module_->getInt(0), TypeRef{TypeRef::Base::Int, 0}};
          case ExprKind::Ident: {
            VarInfo *var = lookup(e.text);
            if (!var) {
                err(e.loc, "unknown variable '" + e.text + "'");
                return {module_->getInt(0), TypeRef{TypeRef::Base::Int, 0}};
            }
            if (var->isMutex) {
                // A mutex name used as a value denotes its address.
                TypeRef t{TypeRef::Base::Int, 1};
                return {var->addr, t};
            }
            if (var->isArray) {
                // Array decays to a pointer to its first element.
                return {var->addr, var->type.pointerTo()};
            }
            Value *loaded =
                builder_.load(lowerType(var->type), var->addr);
            return {loaded, var->type};
          }
          case ExprKind::Deref: {
            TypedValue lv = genLValue(e);
            if (lv.type.isVoid())
                return {module_->getInt(0), TypeRef{TypeRef::Base::Int, 0}};
            Instruction *loaded =
                builder_.load(lowerType(lv.type), lv.value);
            loaded->setTag(derefTag(e.loc));
            return {loaded, lv.type};
          }
          case ExprKind::Index: {
            TypedValue lv = genElementAddr(e);
            Instruction *loaded =
                builder_.load(lowerType(lv.type), lv.value);
            loaded->setTag(derefTag(e.loc));
            return {loaded, lv.type};
          }
          case ExprKind::AddrOf: {
            TypedValue lv = genLValue(*e.kids[0]);
            return {lv.value, lv.type.pointerTo()};
          }
          case ExprKind::Unary:
            return genUnary(e);
          case ExprKind::Binary:
            return genBinary(e);
          case ExprKind::Assign:
            return genAssign(e);
          case ExprKind::Call:
            return genCall(e);
        }
        return {module_->getInt(0), TypeRef{TypeRef::Base::Int, 0}};
    }

    std::string
    derefTag(SrcLoc loc) const
    {
        return strfmt("deref.%s.%u", curDecl_->name.c_str(), loc.line);
    }

    TypedValue
    genUnary(const Expr &e)
    {
        if (e.text == "!") {
            Value *c = genCond(e);
            return {builder_.zext(c), TypeRef{TypeRef::Base::Int, 0}};
        }
        // Negation.
        TypedValue v = genValue(*e.kids[0]);
        builder_.setLoc(e.loc);
        if (v.type.isDouble())
            return {builder_.binop(Opcode::FSub, module_->getFloat(0.0),
                                   v.value),
                    v.type};
        if (!v.type.isInt()) {
            err(e.loc, "cannot negate this type");
            return v;
        }
        return {builder_.binop(Opcode::Sub, module_->getInt(0), v.value),
                v.type};
    }

    TypedValue
    genBinary(const Expr &e)
    {
        const std::string &op = e.text;
        if (op == "&&" || op == "||" || op == "==" || op == "!=" ||
            op == "<" || op == "<=" || op == ">" || op == ">=") {
            Value *c = genCond(e);
            return {builder_.zext(c), TypeRef{TypeRef::Base::Int, 0}};
        }

        TypedValue lhs = genValue(*e.kids[0]);
        TypedValue rhs = genValue(*e.kids[1]);
        builder_.setLoc(e.loc);

        // Pointer arithmetic: ptr +/- int.
        if (lhs.type.isPointer() || rhs.type.isPointer()) {
            if (op == "+" || op == "-") {
                TypedValue p = lhs.type.isPointer() ? lhs : rhs;
                TypedValue n = lhs.type.isPointer() ? rhs : lhs;
                if (n.type.isPointer()) {
                    err(e.loc, "cannot add two pointers");
                    return p;
                }
                n = convert(n, TypeRef{TypeRef::Base::Int, 0}, e.loc);
                Value *off = n.value;
                if (op == "-") {
                    if (!lhs.type.isPointer()) {
                        err(e.loc, "cannot subtract pointer from int");
                        return p;
                    }
                    off = builder_.binop(Opcode::Sub, module_->getInt(0),
                                         off);
                }
                return {builder_.ptrAdd(p.value, off), p.type};
            }
            err(e.loc, "invalid pointer arithmetic");
            return lhs;
        }

        bool fp = lhs.type.isDouble() || rhs.type.isDouble();
        if (fp) {
            TypeRef d{TypeRef::Base::Double, 0};
            lhs = convert(lhs, d, e.loc);
            rhs = convert(rhs, d, e.loc);
            Opcode fop;
            if (op == "+")
                fop = Opcode::FAdd;
            else if (op == "-")
                fop = Opcode::FSub;
            else if (op == "*")
                fop = Opcode::FMul;
            else if (op == "/")
                fop = Opcode::FDiv;
            else {
                err(e.loc, "operator '" + op + "' needs integer operands");
                return lhs;
            }
            return {builder_.binop(fop, lhs.value, rhs.value), lhs.type};
        }

        TypeRef i{TypeRef::Base::Int, 0};
        lhs = convert(lhs, i, e.loc);
        rhs = convert(rhs, i, e.loc);
        Opcode iop;
        if (op == "+")
            iop = Opcode::Add;
        else if (op == "-")
            iop = Opcode::Sub;
        else if (op == "*")
            iop = Opcode::Mul;
        else if (op == "/")
            iop = Opcode::SDiv;
        else if (op == "%")
            iop = Opcode::SRem;
        else if (op == "&")
            iop = Opcode::And;
        else if (op == "|")
            iop = Opcode::Or;
        else if (op == "^")
            iop = Opcode::Xor;
        else if (op == "<<")
            iop = Opcode::Shl;
        else if (op == ">>")
            iop = Opcode::Shr;
        else {
            err(e.loc, "unknown operator '" + op + "'");
            return lhs;
        }
        return {builder_.binop(iop, lhs.value, rhs.value), i};
    }

    TypedValue
    genAssign(const Expr &e)
    {
        TypedValue lv = genLValue(*e.kids[0]);
        if (e.text == "=") {
            TypedValue v = genValue(*e.kids[1]);
            v = convert(v, lv.type, e.loc);
            builder_.setLoc(e.loc);
            Instruction *st = builder_.store(v.value, lv.value);
            if (e.kids[0]->kind == ExprKind::Deref ||
                e.kids[0]->kind == ExprKind::Index)
                st->setTag(derefTag(e.loc));
            return v;
        }
        // Compound assignment: load, op, store.
        builder_.setLoc(e.loc);
        Value *old = builder_.load(lowerType(lv.type), lv.value);
        TypedValue rhs = genValue(*e.kids[1]);
        builder_.setLoc(e.loc);
        TypedValue result;
        if (lv.type.isPointer()) {
            rhs = convert(rhs, TypeRef{TypeRef::Base::Int, 0}, e.loc);
            Value *off = rhs.value;
            if (e.text == "-=")
                off = builder_.binop(Opcode::Sub, module_->getInt(0), off);
            result = {builder_.ptrAdd(old, off), lv.type};
        } else if (lv.type.isDouble()) {
            rhs = convert(rhs, lv.type, e.loc);
            result = {builder_.binop(e.text == "+=" ? Opcode::FAdd
                                                    : Opcode::FSub,
                                     old, rhs.value),
                      lv.type};
        } else {
            rhs = convert(rhs, lv.type, e.loc);
            result = {builder_.binop(e.text == "+=" ? Opcode::Add
                                                    : Opcode::Sub,
                                     old, rhs.value),
                      lv.type};
        }
        Instruction *st = builder_.store(result.value, lv.value);
        if (e.kids[0]->kind == ExprKind::Deref ||
            e.kids[0]->kind == ExprKind::Index)
            st->setTag(derefTag(e.loc));
        return result;
    }

    //
    // Calls (user functions and language builtins).
    //

    TypedValue
    genCall(const Expr &e)
    {
        const std::string &name = e.text;
        TypeRef int_t{TypeRef::Base::Int, 0};
        TypeRef void_t{TypeRef::Base::Void, 0};

        if (name == "assert" || name == "oracle")
            return genAssertLike(e, name == "oracle");
        if (name == "print")
            return genPrint(e);

        if (name == "spawn") {
            if (e.kids.size() != 2 ||
                e.kids[0]->kind != ExprKind::Ident) {
                err(e.loc, "spawn(function, int_arg) expected");
                return {module_->getInt(0), int_t};
            }
            Function *entry = module_->findFunction(e.kids[0]->text);
            if (!entry) {
                err(e.loc, "unknown thread function '" + e.kids[0]->text +
                               "'");
                return {module_->getInt(0), int_t};
            }
            if (entry->numArgs() != 1 ||
                entry->arg(0)->type() != ir::Type::I64)
                err(e.loc, "thread entry must take a single int argument");
            TypedValue arg = genValue(*e.kids[1]);
            arg = convert(arg, int_t, e.loc);
            builder_.setLoc(e.loc);
            Instruction *call = builder_.callBuiltin(
                Builtin::ThreadCreate,
                {module_->getFuncAddr(entry), arg.value});
            return {call, int_t};
        }
        if (name == "join") {
            return genSimpleBuiltin(e, Builtin::ThreadJoin, {int_t},
                                    void_t);
        }
        if (name == "lock" || name == "unlock") {
            if (e.kids.size() != 1) {
                err(e.loc, name + "(mutex) expected");
                return {module_->getInt(0), int_t};
            }
            TypedValue m = genValue(*e.kids[0]);
            if (!m.type.isPointer()) {
                err(e.loc, name + "() needs a mutex or mutex pointer");
                return {module_->getInt(0), int_t};
            }
            builder_.setLoc(e.loc);
            Instruction *call = builder_.callBuiltin(
                name == "lock" ? Builtin::MutexLock : Builtin::MutexUnlock,
                {m.value});
            call->setTag(strfmt("%s.%s.%u", name.c_str(),
                                curDecl_->name.c_str(), e.loc.line));
            return {call, void_t};
        }
        if (name == "timedlock") {
            if (e.kids.size() != 2) {
                err(e.loc, "timedlock(mutex, timeout) expected");
                return {module_->getInt(0), int_t};
            }
            TypedValue m = genValue(*e.kids[0]);
            TypedValue t = genValue(*e.kids[1]);
            t = convert(t, int_t, e.loc);
            builder_.setLoc(e.loc);
            Instruction *call = builder_.callBuiltin(
                Builtin::MutexTimedLock, {m.value, t.value});
            return {call, int_t};
        }
        if (name == "malloc") {
            if (e.kids.size() != 1) {
                err(e.loc, "malloc(cells) expected");
                return {module_->getNull(), int_t.pointerTo()};
            }
            TypedValue n = genValue(*e.kids[0]);
            n = convert(n, int_t, e.loc);
            builder_.setLoc(e.loc);
            Instruction *call =
                builder_.callBuiltin(Builtin::Malloc, {n.value});
            return {call, int_t.pointerTo()};
        }
        if (name == "free") {
            if (e.kids.size() != 1) {
                err(e.loc, "free(ptr) expected");
                return {module_->getInt(0), void_t};
            }
            TypedValue p = genValue(*e.kids[0]);
            if (!p.type.isPointer())
                err(e.loc, "free() needs a pointer");
            builder_.setLoc(e.loc);
            builder_.callBuiltin(Builtin::Free, {p.value});
            return {module_->getInt(0), void_t};
        }
        if (name == "time")
            return genSimpleBuiltin(e, Builtin::Time, {}, int_t);
        if (name == "yield")
            return genSimpleBuiltin(e, Builtin::Yield, {}, void_t);
        if (name == "sleep")
            return genSimpleBuiltin(e, Builtin::Sleep, {int_t}, void_t);
        if (name == "rand")
            return genSimpleBuiltin(e, Builtin::RandInt, {int_t}, int_t);
        if (name == "hint") {
            if (e.kids.size() != 1 ||
                e.kids[0]->kind != ExprKind::IntLit) {
                err(e.loc, "hint(id) takes an integer literal");
                return {module_->getInt(0), void_t};
            }
            builder_.setLoc(e.loc);
            builder_.schedHint(uint64_t(e.kids[0]->ival));
            return {module_->getInt(0), void_t};
        }

        // User function call.
        Function *callee = module_->findFunction(name);
        if (!callee) {
            err(e.loc, "unknown function '" + name + "'");
            return {module_->getInt(0), int_t};
        }
        const FuncDecl *decl = findDecl(name);
        if (e.kids.size() != callee->numArgs()) {
            err(e.loc, strfmt("'%s' expects %u arguments, got %zu",
                              name.c_str(), callee->numArgs(),
                              e.kids.size()));
            return {module_->getInt(0), int_t};
        }
        std::vector<Value *> args;
        for (unsigned i = 0; i < e.kids.size(); ++i) {
            TypedValue a = genValue(*e.kids[i]);
            a = convert(a, decl->params[i].type, e.kids[i]->loc);
            args.push_back(a.value);
        }
        builder_.setLoc(e.loc);
        Instruction *call = builder_.call(callee, args);
        return {call, decl->returnType};
    }

    const FuncDecl *
    findDecl(const std::string &name) const
    {
        for (const auto &fn : prog_.functions)
            if (fn->name == name)
                return fn.get();
        fatal("findDecl: missing declaration");
    }

    TypedValue
    genSimpleBuiltin(const Expr &e, Builtin b,
                     const std::vector<TypeRef> &params, TypeRef ret)
    {
        if (e.kids.size() != params.size()) {
            err(e.loc, strfmt("'%s' expects %zu arguments", e.text.c_str(),
                              params.size()));
            return {module_->getInt(0), ret};
        }
        std::vector<Value *> args;
        for (unsigned i = 0; i < params.size(); ++i) {
            TypedValue a = genValue(*e.kids[i]);
            a = convert(a, params[i], e.kids[i]->loc);
            args.push_back(a.value);
        }
        builder_.setLoc(e.loc);
        Instruction *call = builder_.callBuiltin(b, args);
        return {call, ret};
    }

    /** assert(e) / oracle(e): Fig 5a / 5b lowering. */
    TypedValue
    genAssertLike(const Expr &e, bool is_oracle)
    {
        TypeRef void_t{TypeRef::Base::Void, 0};
        if (e.kids.empty()) {
            err(e.loc, e.text + "(condition) expected");
            return {module_->getInt(0), void_t};
        }
        Value *cond = genCond(*e.kids[0]);
        BasicBlock *ok = curFn_->addBlock(is_oracle ? "oracle.ok"
                                                    : "assert.ok");
        BasicBlock *fail = curFn_->addBlock(is_oracle ? "oracle.fail"
                                                      : "assert.fail");
        builder_.setLoc(e.loc);
        builder_.condBr(cond, ok, fail);
        builder_.setInsertAtEnd(fail);
        std::string msg =
            strfmt("%s:%u: %s failed", curDecl_->name.c_str(), e.loc.line,
                   e.text.c_str());
        Instruction *call = builder_.callBuiltin(
            is_oracle ? Builtin::OracleFail : Builtin::AssertFail,
            {module_->getStr(msg)});
        call->setTag(strfmt("%s.%s.%u", e.text.c_str(),
                            curDecl_->name.c_str(), e.loc.line));
        builder_.unreachable();
        builder_.setInsertAtEnd(ok);
        return {module_->getInt(0), void_t};
    }

    TypedValue
    genPrint(const Expr &e)
    {
        TypeRef void_t{TypeRef::Base::Void, 0};
        for (const auto &arg : e.kids) {
            if (arg->kind == ExprKind::StrLit) {
                builder_.setLoc(arg->loc);
                Instruction *call = builder_.callBuiltin(
                    Builtin::PrintStr, {module_->getStr(arg->text)});
                tagOutput(call, arg->loc);
                continue;
            }
            TypedValue v = genValue(*arg);
            builder_.setLoc(arg->loc);
            Instruction *call;
            if (v.type.isDouble()) {
                call = builder_.callBuiltin(Builtin::PrintF64, {v.value});
            } else if (v.type.isInt()) {
                call = builder_.callBuiltin(Builtin::PrintI64, {v.value});
            } else {
                err(arg->loc, "cannot print a pointer");
                continue;
            }
            tagOutput(call, arg->loc);
        }
        return {module_->getInt(0), void_t};
    }

    void
    tagOutput(Instruction *call, SrcLoc loc)
    {
        call->setTag(strfmt("out.%s.%u", curDecl_->name.c_str(), loc.line));
    }

    struct LoopTargets
    {
        BasicBlock *breakTarget;
        BasicBlock *continueTarget;
    };

    const Program &prog_;
    DiagEngine &diags_;
    std::unique_ptr<ir::Module> module_;
    IRBuilder builder_;
    Function *curFn_ = nullptr;
    const FuncDecl *curDecl_ = nullptr;
    std::unordered_map<std::string, VarInfo> globals_;
    std::vector<std::unordered_map<std::string, VarInfo>> scopes_;
    std::vector<LoopTargets> loops_;
};

} // namespace

std::unique_ptr<ir::Module>
generateIR(const Program &prog, DiagEngine &diags,
           const std::string &module_name)
{
    Codegen cg(prog, diags, module_name);
    return cg.run();
}

} // namespace conair::fe
