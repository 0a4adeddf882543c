#include "frontend/parser.h"

#include "frontend/lexer.h"
#include "ir/type.h"
#include "support/str.h"

namespace conair::fe {

std::string
TypeRef::str() const
{
    std::string s = base == Base::Int      ? "int"
                    : base == Base::Double ? "double"
                                           : "void";
    for (unsigned i = 0; i < ptr; ++i)
        s += '*';
    return s;
}

namespace {

class Parser
{
  public:
    Parser(std::vector<Token> toks, DiagEngine &diags)
        : toks_(std::move(toks)), diags_(diags)
    {}

    std::unique_ptr<Program>
    run()
    {
        auto prog = std::make_unique<Program>();
        while (cur().kind != Tk::End && !diags_.hasErrors())
            parseTopLevel(*prog);
        return diags_.hasErrors() ? nullptr : std::move(prog);
    }

  private:
    const Token &cur() const { return toks_[pos_]; }
    const Token &
    peek(size_t n = 1) const
    {
        return toks_[std::min(pos_ + n, toks_.size() - 1)];
    }
    void bump() { if (pos_ + 1 < toks_.size()) ++pos_; }

    void
    err(const std::string &msg)
    {
        if (!tooDeep_)
            diags_.error(cur().loc, msg);
    }

    /** One level of statement/expression nesting, held while a parse
     *  function descends. */
    struct Nesting
    {
        explicit Nesting(unsigned &d) : depth(d) { ++depth; }
        ~Nesting() { --depth; }
        Nesting(const Nesting &) = delete;
        Nesting &operator=(const Nesting &) = delete;
        unsigned &depth;
    };

    /** True when one more level would pass kMaxNesting.  The first time,
     *  reports "nesting too deep" at the current token and skips to the
     *  end of input, so every enclosing level unwinds without
     *  descending further or reporting again. */
    bool
    tooDeep()
    {
        if (depth_ < kMaxNesting)
            return false;
        if (!tooDeep_) {
            err(strfmt("nesting too deep (more than %u levels)",
                       kMaxNesting));
            tooDeep_ = true;
            pos_ = toks_.size() - 1; // the End token
        }
        return true;
    }

    /** The size of an array declaration, at the current token: a
     *  literal of at most ir::kMaxBlockCells cells. */
    bool
    parseArraySize(int64_t &out)
    {
        if (cur().kind != Tk::IntLit) {
            err("expected array size");
            return false;
        }
        if (cur().ival > ir::kMaxBlockCells) {
            err(strfmt("array size %lld exceeds the %lld-cell block limit",
                       (long long)cur().ival,
                       (long long)ir::kMaxBlockCells));
            return false;
        }
        out = cur().ival;
        bump();
        return true;
    }

    bool
    expect(Tk kind)
    {
        if (cur().kind != kind) {
            err(strfmt("expected %s, found %s", tokenKindName(kind),
                       tokenKindName(cur().kind)));
            return false;
        }
        bump();
        return true;
    }

    bool
    isTypeStart(Tk kind) const
    {
        return kind == Tk::KwInt || kind == Tk::KwDouble ||
               kind == Tk::KwVoid;
    }

    TypeRef
    parseType()
    {
        TypeRef t;
        switch (cur().kind) {
          case Tk::KwInt: t.base = TypeRef::Base::Int; break;
          case Tk::KwDouble: t.base = TypeRef::Base::Double; break;
          case Tk::KwVoid: t.base = TypeRef::Base::Void; break;
          default:
            err("expected type name");
            return t;
        }
        bump();
        while (cur().kind == Tk::Star) {
            ++t.ptr;
            bump();
        }
        return t;
    }

    void
    parseTopLevel(Program &prog)
    {
        if (cur().kind == Tk::KwMutex) {
            GlobalDecl g;
            g.loc = cur().loc;
            g.isMutex = true;
            bump();
            if (cur().kind != Tk::Ident) {
                err("expected mutex name");
                return;
            }
            g.name = cur().text;
            bump();
            expect(Tk::Semi);
            prog.globals.push_back(std::move(g));
            return;
        }
        if (!isTypeStart(cur().kind)) {
            err("expected declaration");
            return;
        }
        TypeRef type = parseType();
        if (cur().kind != Tk::Ident) {
            err("expected declaration name");
            return;
        }
        std::string name = cur().text;
        SrcLoc loc = cur().loc;
        bump();
        if (cur().kind == Tk::LParen) {
            parseFunction(prog, type, std::move(name), loc);
            return;
        }
        // Global variable.
        GlobalDecl g;
        g.loc = loc;
        g.type = type;
        g.name = std::move(name);
        if (cur().kind == Tk::LBracket) {
            bump();
            if (!parseArraySize(g.arraySize))
                return;
            expect(Tk::RBracket);
        }
        if (cur().kind == Tk::Assign) {
            bump();
            g.hasInit = true;
            auto one = [&]() -> bool {
                int64_t sign = 1;
                if (cur().kind == Tk::Minus) {
                    sign = -1;
                    bump();
                }
                if (cur().kind == Tk::IntLit) {
                    g.initInt.push_back(sign * cur().ival);
                    g.initFp.push_back(double(sign * cur().ival));
                    bump();
                    return true;
                }
                if (cur().kind == Tk::FloatLit) {
                    g.initFp.push_back(sign * cur().fval);
                    g.initInt.push_back(int64_t(sign * cur().fval));
                    bump();
                    return true;
                }
                err("global initialisers must be numeric literals");
                return false;
            };
            if (cur().kind == Tk::LBrace) {
                bump();
                while (cur().kind != Tk::RBrace && cur().kind != Tk::End) {
                    if (!one())
                        return;
                    if (cur().kind == Tk::Comma)
                        bump();
                }
                expect(Tk::RBrace);
            } else if (!one()) {
                return;
            }
        }
        expect(Tk::Semi);
        prog.globals.push_back(std::move(g));
    }

    void
    parseFunction(Program &prog, TypeRef ret, std::string name, SrcLoc loc)
    {
        auto fn = std::make_unique<FuncDecl>();
        fn->returnType = ret;
        fn->name = std::move(name);
        fn->loc = loc;
        expect(Tk::LParen);
        while (cur().kind != Tk::RParen && cur().kind != Tk::End) {
            Param p;
            p.loc = cur().loc;
            p.type = parseType();
            if (cur().kind != Tk::Ident) {
                err("expected parameter name");
                return;
            }
            p.name = cur().text;
            bump();
            fn->params.push_back(std::move(p));
            if (cur().kind == Tk::Comma)
                bump();
            else
                break;
        }
        expect(Tk::RParen);
        if (cur().kind != Tk::LBrace) {
            err("expected function body");
            return;
        }
        fn->body = parseBlock();
        prog.functions.push_back(std::move(fn));
    }

    std::unique_ptr<Stmt>
    makeStmt(StmtKind kind)
    {
        auto s = std::make_unique<Stmt>();
        s->kind = kind;
        s->loc = cur().loc;
        return s;
    }

    std::unique_ptr<Stmt>
    parseBlock()
    {
        auto block = makeStmt(StmtKind::Block);
        expect(Tk::LBrace);
        while (cur().kind != Tk::RBrace && cur().kind != Tk::End &&
               !diags_.hasErrors()) {
            auto s = parseStmt();
            if (s)
                block->kids.push_back(std::move(s));
        }
        expect(Tk::RBrace);
        return block;
    }

    std::unique_ptr<Stmt>
    parseStmt()
    {
        if (tooDeep())
            return nullptr;
        Nesting level(depth_);
        switch (cur().kind) {
          case Tk::LBrace:
            return parseBlock();
          case Tk::KwIf: {
            auto s = makeStmt(StmtKind::If);
            bump();
            expect(Tk::LParen);
            s->expr = parseExpr();
            expect(Tk::RParen);
            s->kids.push_back(parseStmt());
            if (cur().kind == Tk::KwElse) {
                bump();
                s->kids.push_back(parseStmt());
            }
            return s;
          }
          case Tk::KwWhile: {
            auto s = makeStmt(StmtKind::While);
            bump();
            expect(Tk::LParen);
            s->expr = parseExpr();
            expect(Tk::RParen);
            s->kids.push_back(parseStmt());
            return s;
          }
          case Tk::KwFor: {
            auto s = makeStmt(StmtKind::For);
            bump();
            expect(Tk::LParen);
            if (cur().kind != Tk::Semi)
                s->forInit = parseSimpleStmt();
            expect(Tk::Semi);
            if (cur().kind != Tk::Semi)
                s->expr = parseExpr();
            expect(Tk::Semi);
            if (cur().kind != Tk::RParen)
                s->forStep = parseExpr();
            expect(Tk::RParen);
            s->kids.push_back(parseStmt());
            return s;
          }
          case Tk::KwReturn: {
            auto s = makeStmt(StmtKind::Return);
            bump();
            if (cur().kind != Tk::Semi)
                s->expr = parseExpr();
            expect(Tk::Semi);
            return s;
          }
          case Tk::KwBreak: {
            auto s = makeStmt(StmtKind::Break);
            bump();
            expect(Tk::Semi);
            return s;
          }
          case Tk::KwContinue: {
            auto s = makeStmt(StmtKind::Continue);
            bump();
            expect(Tk::Semi);
            return s;
          }
          default: {
            auto s = parseSimpleStmt();
            expect(Tk::Semi);
            return s;
          }
        }
    }

    /** A declaration or expression statement (no trailing ';'). */
    std::unique_ptr<Stmt>
    parseSimpleStmt()
    {
        if (isTypeStart(cur().kind)) {
            auto s = makeStmt(StmtKind::VarDecl);
            s->declType = parseType();
            if (cur().kind != Tk::Ident) {
                err("expected variable name");
                return s;
            }
            s->text = cur().text;
            bump();
            if (cur().kind == Tk::LBracket) {
                bump();
                if (!parseArraySize(s->arraySize))
                    return s;
                expect(Tk::RBracket);
            }
            if (cur().kind == Tk::Assign) {
                bump();
                s->expr = parseExpr();
            }
            return s;
        }
        auto s = makeStmt(StmtKind::ExprStmt);
        s->expr = parseExpr();
        return s;
    }

    //
    // Expressions (precedence climbing).
    //

    std::unique_ptr<Expr>
    makeExpr(ExprKind kind, SrcLoc loc)
    {
        auto e = std::make_unique<Expr>();
        e->kind = kind;
        e->loc = loc;
        return e;
    }

    std::unique_ptr<Expr>
    parseExpr()
    {
        return parseAssign();
    }

    std::unique_ptr<Expr>
    parseAssign()
    {
        auto lhs = parseBinary(0);
        if (cur().kind == Tk::Assign || cur().kind == Tk::PlusAssign ||
            cur().kind == Tk::MinusAssign) {
            auto e = makeExpr(ExprKind::Assign, cur().loc);
            e->text = cur().kind == Tk::Assign        ? "="
                      : cur().kind == Tk::PlusAssign ? "+="
                                                      : "-=";
            bump();
            e->kids.push_back(std::move(lhs));
            if (!tooDeep()) {
                Nesting level(depth_);
                e->kids.push_back(parseAssign()); // right associative
            }
            return e;
        }
        return lhs;
    }

    struct OpInfo
    {
        const char *spelling;
        int prec;
    };

    bool
    binOp(Tk kind, OpInfo &out) const
    {
        switch (kind) {
          case Tk::PipePipe: out = {"||", 1}; return true;
          case Tk::AmpAmp: out = {"&&", 2}; return true;
          case Tk::Pipe: out = {"|", 3}; return true;
          case Tk::Caret: out = {"^", 4}; return true;
          case Tk::Amp: out = {"&", 5}; return true;
          case Tk::Eq: out = {"==", 6}; return true;
          case Tk::Ne: out = {"!=", 6}; return true;
          case Tk::Lt: out = {"<", 7}; return true;
          case Tk::Le: out = {"<=", 7}; return true;
          case Tk::Gt: out = {">", 7}; return true;
          case Tk::Ge: out = {">=", 7}; return true;
          case Tk::Shl: out = {"<<", 8}; return true;
          case Tk::Shr: out = {">>", 8}; return true;
          case Tk::Plus: out = {"+", 9}; return true;
          case Tk::Minus: out = {"-", 9}; return true;
          case Tk::Star: out = {"*", 10}; return true;
          case Tk::Slash: out = {"/", 10}; return true;
          case Tk::Percent: out = {"%", 10}; return true;
          default: return false;
        }
    }

    std::unique_ptr<Expr>
    parseBinary(int min_prec)
    {
        auto lhs = parseUnary();
        for (;;) {
            OpInfo info;
            if (!binOp(cur().kind, info) || info.prec < min_prec)
                return lhs;
            SrcLoc loc = cur().loc;
            bump();
            auto rhs = parseBinary(info.prec + 1);
            auto e = makeExpr(ExprKind::Binary, loc);
            e->text = info.spelling;
            e->kids.push_back(std::move(lhs));
            e->kids.push_back(std::move(rhs));
            lhs = std::move(e);
        }
    }

    std::unique_ptr<Expr>
    parseUnary()
    {
        if (tooDeep())
            return makeExpr(ExprKind::IntLit, cur().loc);
        Nesting level(depth_);
        switch (cur().kind) {
          case Tk::Minus: {
            auto e = makeExpr(ExprKind::Unary, cur().loc);
            e->text = "-";
            bump();
            e->kids.push_back(parseUnary());
            return e;
          }
          case Tk::Bang: {
            auto e = makeExpr(ExprKind::Unary, cur().loc);
            e->text = "!";
            bump();
            e->kids.push_back(parseUnary());
            return e;
          }
          case Tk::Star: {
            auto e = makeExpr(ExprKind::Deref, cur().loc);
            bump();
            e->kids.push_back(parseUnary());
            return e;
          }
          case Tk::Amp: {
            auto e = makeExpr(ExprKind::AddrOf, cur().loc);
            bump();
            e->kids.push_back(parseUnary());
            return e;
          }
          case Tk::PlusPlus:
          case Tk::MinusMinus: {
            // Prefix ++x / --x sugar: x += 1.
            auto e = makeExpr(ExprKind::Assign, cur().loc);
            e->text = cur().kind == Tk::PlusPlus ? "+=" : "-=";
            bump();
            e->kids.push_back(parseUnary());
            auto one = makeExpr(ExprKind::IntLit, e->loc);
            one->ival = 1;
            e->kids.push_back(std::move(one));
            return e;
          }
          default:
            return parsePostfix();
        }
    }

    std::unique_ptr<Expr>
    parsePostfix()
    {
        auto e = parsePrimary();
        for (;;) {
            if (cur().kind == Tk::LBracket) {
                auto idx = makeExpr(ExprKind::Index, cur().loc);
                bump();
                idx->kids.push_back(std::move(e));
                idx->kids.push_back(parseExpr());
                expect(Tk::RBracket);
                e = std::move(idx);
            } else if (cur().kind == Tk::PlusPlus ||
                       cur().kind == Tk::MinusMinus) {
                // Postfix x++ as a statement-level sugar: value ignored.
                auto a = makeExpr(ExprKind::Assign, cur().loc);
                a->text = cur().kind == Tk::PlusPlus ? "+=" : "-=";
                bump();
                a->kids.push_back(std::move(e));
                auto one = makeExpr(ExprKind::IntLit, a->loc);
                one->ival = 1;
                a->kids.push_back(std::move(one));
                e = std::move(a);
            } else {
                return e;
            }
        }
    }

    std::unique_ptr<Expr>
    parsePrimary()
    {
        switch (cur().kind) {
          case Tk::IntLit: {
            auto e = makeExpr(ExprKind::IntLit, cur().loc);
            e->ival = cur().ival;
            bump();
            return e;
          }
          case Tk::FloatLit: {
            auto e = makeExpr(ExprKind::FloatLit, cur().loc);
            e->fval = cur().fval;
            bump();
            return e;
          }
          case Tk::StrLit: {
            auto e = makeExpr(ExprKind::StrLit, cur().loc);
            e->text = cur().text;
            bump();
            return e;
          }
          case Tk::Ident: {
            std::string name = cur().text;
            SrcLoc loc = cur().loc;
            bump();
            if (cur().kind == Tk::LParen) {
                auto e = makeExpr(ExprKind::Call, loc);
                e->text = std::move(name);
                bump();
                while (cur().kind != Tk::RParen && cur().kind != Tk::End &&
                       !diags_.hasErrors()) {
                    e->kids.push_back(parseExpr());
                    if (cur().kind == Tk::Comma)
                        bump();
                    else
                        break;
                }
                expect(Tk::RParen);
                return e;
            }
            auto e = makeExpr(ExprKind::Ident, loc);
            e->text = std::move(name);
            return e;
          }
          case Tk::LParen: {
            bump();
            auto e = parseExpr();
            expect(Tk::RParen);
            return e;
          }
          default:
            err(strfmt("expected expression, found %s",
                       tokenKindName(cur().kind)));
            // Return a zero literal so parsing can continue.
            auto e = makeExpr(ExprKind::IntLit, cur().loc);
            bump();
            return e;
          }
    }

    std::vector<Token> toks_;
    DiagEngine &diags_;
    size_t pos_ = 0;
    unsigned depth_ = 0;   ///< current nesting (see kMaxNesting)
    bool tooDeep_ = false; ///< reported "nesting too deep"; unwinding
};

} // namespace

std::unique_ptr<Program>
parseProgram(const std::string &source, DiagEngine &diags)
{
    std::vector<Token> toks = lex(source, diags);
    if (diags.hasErrors())
        return nullptr;
    Parser p(std::move(toks), diags);
    return p.run();
}

} // namespace conair::fe
