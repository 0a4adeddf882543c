#include "ir/parser.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <unordered_map>
#include <vector>

#include "support/str.h"

namespace conair::ir {

namespace {

enum class Tok : uint8_t {
    End, Ident, Percent, At, Dollar, Int, Float, Str, Tag,
    LParen, RParen, LBracket, RBracket, LBrace, RBrace,
    Comma, Colon, Equal, Arrow,
};

struct Token
{
    Tok kind = Tok::End;
    std::string text;   // identifier / %name / @name payload
    int64_t ival = 0;
    double fval = 0;
    SrcLoc loc;
    bool firstOnLine = false;
};

class Lexer
{
  public:
    Lexer(const std::string &src, DiagEngine &diags)
        : src_(src), diags_(diags)
    {}

    std::vector<Token>
    run()
    {
        std::vector<Token> toks;
        bool line_start = true;
        while (pos_ < src_.size()) {
            char c = src_[pos_];
            if (c == '\n') {
                ++line_;
                col_ = 1;
                ++pos_;
                line_start = true;
                continue;
            }
            if (std::isspace((unsigned char)c)) {
                advance();
                continue;
            }
            if (c == ';') { // comment to end of line
                while (pos_ < src_.size() && src_[pos_] != '\n')
                    advance();
                continue;
            }
            Token t = next();
            t.firstOnLine = line_start;
            line_start = false;
            if (t.kind == Tok::End)
                break;
            toks.push_back(std::move(t));
        }
        Token end;
        end.loc = loc();
        toks.push_back(end);
        return toks;
    }

  private:
    SrcLoc loc() const { return {line_, col_}; }

    void
    advance()
    {
        ++pos_;
        ++col_;
    }

    Token
    next()
    {
        Token t;
        t.loc = loc();
        char c = src_[pos_];
        switch (c) {
          case '(': advance(); t.kind = Tok::LParen; return t;
          case ')': advance(); t.kind = Tok::RParen; return t;
          case '[': advance(); t.kind = Tok::LBracket; return t;
          case ']': advance(); t.kind = Tok::RBracket; return t;
          case '{': advance(); t.kind = Tok::LBrace; return t;
          case '}': advance(); t.kind = Tok::RBrace; return t;
          case ',': advance(); t.kind = Tok::Comma; return t;
          case ':': advance(); t.kind = Tok::Colon; return t;
          case '=': advance(); t.kind = Tok::Equal; return t;
          default: break;
        }
        if (c == '-' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '>') {
            advance();
            advance();
            t.kind = Tok::Arrow;
            return t;
        }
        if (c == '%' || c == '@' || c == '$') {
            advance();
            t.kind = c == '%' ? Tok::Percent
                     : c == '@' ? Tok::At
                                : Tok::Dollar;
            t.text = ident();
            return t;
        }
        if (c == '#') {
            advance();
            if (pos_ < src_.size() && src_[pos_] == '"') {
                t.kind = Tok::Tag;
                t.text = quoted();
                return t;
            }
            diags_.error(t.loc, "expected string after '#'");
            t.kind = Tok::End;
            return t;
        }
        if (c == '"') {
            t.kind = Tok::Str;
            t.text = quoted();
            return t;
        }
        if (c == '-' || std::isdigit((unsigned char)c)) {
            size_t start = pos_;
            advance();
            bool is_float = false;
            while (pos_ < src_.size()) {
                char d = src_[pos_];
                if (std::isdigit((unsigned char)d)) {
                    advance();
                } else if (d == '.' || d == 'e' || d == 'E' || d == 'n' ||
                           d == 'i' || d == 'f' ||
                           ((d == '+' || d == '-') && pos_ > start &&
                            (src_[pos_ - 1] == 'e' ||
                             src_[pos_ - 1] == 'E'))) {
                    // '.', exponents, and nan/inf spellings mark floats.
                    is_float = true;
                    advance();
                } else {
                    break;
                }
            }
            std::string text = src_.substr(start, pos_ - start);
            if (is_float) {
                t.kind = Tok::Float;
                t.fval = std::strtod(text.c_str(), nullptr);
            } else {
                // INT64_MIN stays in range: the printer emits it with
                // %lld, and ir::clone round-trips modules as text.
                t.kind = Tok::Int;
                errno = 0;
                t.ival = std::strtoll(text.c_str(), nullptr, 10);
                if (errno == ERANGE)
                    diags_.error(t.loc, "integer literal out of range");
            }
            return t;
        }
        if (std::isalpha((unsigned char)c) || c == '_' || c == '.') {
            t.kind = Tok::Ident;
            t.text = ident();
            return t;
        }
        diags_.error(t.loc, strfmt("unexpected character '%c'", c));
        t.kind = Tok::End;
        return t;
    }

    std::string
    ident()
    {
        size_t start = pos_;
        while (pos_ < src_.size()) {
            char c = src_[pos_];
            if (std::isalnum((unsigned char)c) || c == '_' || c == '.')
                advance();
            else
                break;
        }
        return src_.substr(start, pos_ - start);
    }

    std::string
    quoted()
    {
        advance(); // opening quote
        std::string raw;
        while (pos_ < src_.size() && src_[pos_] != '"') {
            if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) {
                raw += src_[pos_];
                advance();
            }
            raw += src_[pos_];
            advance();
        }
        if (pos_ < src_.size())
            advance(); // closing quote
        return unescape(raw);
    }

    const std::string &src_;
    DiagEngine &diags_;
    size_t pos_ = 0;
    uint32_t line_ = 1;
    uint32_t col_ = 1;
};

class Parser
{
  public:
    Parser(std::vector<Token> toks, DiagEngine &diags)
        : toks_(std::move(toks)), diags_(diags)
    {}

    std::unique_ptr<Module>
    run()
    {
        module_ = std::make_unique<Module>();
        prescanFunctions();
        if (diags_.hasErrors())
            return nullptr;
        while (cur().kind != Tok::End && !diags_.hasErrors())
            parseTopLevel();
        return diags_.hasErrors() ? nullptr : std::move(module_);
    }

  private:
    const Token &cur() const { return toks_[pos_]; }
    const Token &peek(size_t n = 1) const
    {
        return toks_[std::min(pos_ + n, toks_.size() - 1)];
    }
    void bump() { if (pos_ + 1 < toks_.size()) ++pos_; }

    void
    err(const std::string &msg)
    {
        diags_.error(cur().loc, msg);
    }

    bool
    expect(Tok kind, const char *what)
    {
        if (cur().kind != kind) {
            err(strfmt("expected %s", what));
            return false;
        }
        bump();
        return true;
    }

    /** First pass: create Function objects so calls can forward-ref. */
    void
    prescanFunctions()
    {
        size_t save = pos_;
        while (toks_[pos_].kind != Tok::End) {
            if (toks_[pos_].kind == Tok::Ident &&
                toks_[pos_].text == "func") {
                bump();
                if (cur().kind != Tok::At) {
                    err("expected @name after 'func'");
                    return;
                }
                std::string name = cur().text;
                bump();
                // Skip "( args )" to find "-> type".
                if (!expect(Tok::LParen, "'('"))
                    return;
                int depth = 1;
                std::vector<std::pair<Type, std::string>> args;
                while (depth > 0 && cur().kind != Tok::End) {
                    if (cur().kind == Tok::LParen)
                        ++depth;
                    if (cur().kind == Tok::RParen) {
                        --depth;
                        bump();
                        continue;
                    }
                    if (cur().kind == Tok::Ident) {
                        Type t;
                        if (!typeFromName(cur().text, t)) {
                            err("expected argument type");
                            return;
                        }
                        bump();
                        if (cur().kind != Tok::Percent) {
                            err("expected %name after argument type");
                            return;
                        }
                        args.push_back({t, cur().text});
                        bump();
                        if (cur().kind == Tok::Comma)
                            bump();
                    } else {
                        err("malformed argument list");
                        return;
                    }
                }
                if (!expect(Tok::Arrow, "'->'"))
                    return;
                Type ret;
                if (cur().kind != Tok::Ident ||
                    !typeFromName(cur().text, ret)) {
                    err("expected return type");
                    return;
                }
                bump();
                if (module_->findFunction(name)) {
                    err(strfmt("duplicate function @%s", name.c_str()));
                    return;
                }
                Function *f = module_->addFunction(name, ret);
                for (auto &[t, n] : args)
                    f->addArg(t, n);
            } else {
                bump();
            }
        }
        pos_ = save;
    }

    void
    parseTopLevel()
    {
        if (cur().kind != Tok::Ident) {
            err("expected top-level declaration");
            return;
        }
        const std::string &kw = cur().text;
        if (kw == "module") {
            bump();
            if (cur().kind == Tok::Str) {
                module_->setName(cur().text);
                bump();
            }
        } else if (kw == "mutex") {
            bump();
            if (cur().kind != Tok::At) {
                err("expected @name after 'mutex'");
                return;
            }
            if (module_->findGlobal(cur().text)) {
                err(strfmt("duplicate global @%s", cur().text.c_str()));
                return;
            }
            module_->addGlobal(cur().text, Type::I64, 1, /*is_mutex=*/true);
            bump();
        } else if (kw == "global") {
            parseGlobal();
        } else if (kw == "func") {
            parseFunction();
        } else {
            err(strfmt("unknown top-level keyword '%s'", kw.c_str()));
        }
    }

    void
    parseGlobal()
    {
        bump(); // 'global'
        if (cur().kind != Tok::At) {
            err("expected @name after 'global'");
            return;
        }
        std::string name = cur().text;
        bump();
        if (!expect(Tok::Colon, "':'"))
            return;
        Type t;
        if (cur().kind != Tok::Ident || !typeFromName(cur().text, t)) {
            err("expected global element type");
            return;
        }
        bump();
        if (!expect(Tok::LBracket, "'['"))
            return;
        if (cur().kind != Tok::Int) {
            err("expected global size");
            return;
        }
        int64_t size = cur().ival;
        bump();
        if (!expect(Tok::RBracket, "']'"))
            return;
        if (module_->findGlobal(name)) {
            err(strfmt("duplicate global @%s", name.c_str()));
            return;
        }
        if (size <= 0) {
            err(strfmt("global @%s has non-positive size", name.c_str()));
            return;
        }
        if (size > kMaxBlockCells) {
            err(strfmt("global @%s exceeds the %lld-cell block limit",
                       name.c_str(), (long long)kMaxBlockCells));
            return;
        }
        Global *g = module_->addGlobal(name, t, size);
        if (cur().kind == Tok::Equal) {
            bump();
            if (!expect(Tok::LBracket, "'['"))
                return;
            std::vector<int64_t> ivals;
            std::vector<double> fvals;
            while (cur().kind != Tok::RBracket && cur().kind != Tok::End) {
                if (cur().kind == Tok::Int) {
                    ivals.push_back(cur().ival);
                    fvals.push_back(double(cur().ival));
                } else if (cur().kind == Tok::Float) {
                    fvals.push_back(cur().fval);
                    ivals.push_back(int64_t(cur().fval));
                } else {
                    err("expected numeric initialiser");
                    return;
                }
                bump();
                if (cur().kind == Tok::Comma)
                    bump();
            }
            expect(Tok::RBracket, "']'");
            if (t == Type::F64)
                g->setInitFp(std::move(fvals));
            else
                g->setInitInt(std::move(ivals));
        }
    }

    //
    // Function bodies.
    //

    struct Fixup
    {
        Instruction *inst;
        unsigned index;
        std::string name;
        SrcLoc loc;
    };

    void
    parseFunction()
    {
        bump(); // 'func'
        std::string name = cur().text;
        bump();
        // Signature already handled by prescan: skip to '{'.
        while (cur().kind != Tok::LBrace && cur().kind != Tok::End)
            bump();
        Function *f = module_->findFunction(name);
        if (!f) {
            err(strfmt("function @%s missing from prescan", name.c_str()));
            return;
        }
        if (!expect(Tok::LBrace, "'{'"))
            return;

        values_.clear();
        fixups_.clear();
        blocks_.clear();
        for (unsigned i = 0; i < f->numArgs(); ++i)
            values_[f->arg(i)->name()] = f->arg(i);

        prescanLabels(f);

        BasicBlock *bb = nullptr;
        unsigned next_value = 0;
        while (cur().kind != Tok::RBrace && cur().kind != Tok::End &&
               !diags_.hasErrors()) {
            if (cur().kind == Tok::Ident && peek().kind == Tok::Colon &&
                cur().firstOnLine) {
                bb = blocks_[cur().text];
                bump();
                bump();
                continue;
            }
            if (!bb) {
                err("instruction before first block label");
                return;
            }
            parseInstruction(f, bb, next_value);
        }
        expect(Tok::RBrace, "'}'");
        resolveFixups();
    }

    /** Pre-creates the function's blocks, in file order. */
    void
    prescanLabels(Function *f)
    {
        size_t save = pos_;
        int depth = 1;
        while (depth > 0 && toks_[pos_].kind != Tok::End) {
            if (toks_[pos_].kind == Tok::LBrace)
                ++depth;
            else if (toks_[pos_].kind == Tok::RBrace)
                --depth;
            else if (toks_[pos_].kind == Tok::Ident &&
                     toks_[pos_].firstOnLine &&
                     toks_[pos_ + 1].kind == Tok::Colon) {
                blocks_[toks_[pos_].text] = f->addBlock(toks_[pos_].text);
            }
            ++pos_;
        }
        pos_ = save;
    }

    BasicBlock *
    blockRef(const std::string &name)
    {
        auto it = blocks_.find(name);
        if (it == blocks_.end()) {
            err(strfmt("unknown block label '%s'", name.c_str()));
            return nullptr;
        }
        return it->second;
    }

    /** Parses one operand; may record a fixup for forward %refs. */
    void
    parseOperand(Instruction *inst)
    {
        inst->addOperand(nullptr);
        unsigned index = inst->numOperands() - 1;
        switch (cur().kind) {
          case Tok::Int:
            inst->setOperand(index, module_->getInt(cur().ival));
            bump();
            return;
          case Tok::Float:
            inst->setOperand(index, module_->getFloat(cur().fval));
            bump();
            return;
          case Tok::Str:
            inst->setOperand(index, module_->getStr(cur().text));
            bump();
            return;
          case Tok::Percent: {
            auto it = values_.find(cur().text);
            if (it != values_.end())
                inst->setOperand(index, it->second);
            else
                fixups_.push_back({inst, index, cur().text, cur().loc});
            bump();
            return;
          }
          case Tok::At: {
            if (Global *g = module_->findGlobal(cur().text)) {
                inst->setOperand(index, module_->getGlobalAddr(g));
            } else if (Function *fn = module_->findFunction(cur().text)) {
                inst->setOperand(index, module_->getFuncAddr(fn));
            } else {
                err(strfmt("unknown symbol @%s", cur().text.c_str()));
            }
            bump();
            return;
          }
          case Tok::Ident:
            if (cur().text == "null") {
                inst->setOperand(index, module_->getNull());
                bump();
                return;
            }
            if (cur().text == "true" || cur().text == "false") {
                inst->setOperand(index,
                                 module_->getBool(cur().text == "true"));
                bump();
                return;
            }
            if (cur().text == "inf" || cur().text == "nan") {
                inst->setOperand(index,
                                 module_->getFloat(
                                     std::strtod(cur().text.c_str(),
                                                 nullptr)));
                bump();
                return;
            }
            [[fallthrough]];
          default:
            err("expected operand");
        }
    }

    void
    parseInstruction(Function *f, BasicBlock *bb, unsigned &next_value)
    {
        (void)f;
        std::string result_name;
        bool has_result = false;
        if (cur().kind == Tok::Percent) {
            result_name = cur().text;
            has_result = true;
            bump();
            if (!expect(Tok::Equal, "'='"))
                return;
        }
        if (cur().kind != Tok::Ident) {
            err("expected opcode");
            return;
        }
        std::string opname = cur().text;
        SrcLoc oploc = cur().loc;
        bump();

        std::unique_ptr<Instruction> inst;

        if (opname == "alloca") {
            inst = std::make_unique<Instruction>(Opcode::Alloca, Type::Ptr);
            if (cur().kind == Tok::Int) {
                if (cur().ival < 0 || cur().ival > kMaxBlockCells) {
                    err(strfmt("alloca size %lld is outside 0..%lld",
                               (long long)cur().ival,
                               (long long)kMaxBlockCells));
                    return;
                }
                inst->setAllocaSize(cur().ival);
                bump();
            }
        } else if (opname == "load") {
            Type t;
            if (cur().kind != Tok::Ident || !typeFromName(cur().text, t)) {
                err("expected load result type");
                return;
            }
            bump();
            if (!expect(Tok::Comma, "','"))
                return;
            inst = std::make_unique<Instruction>(Opcode::Load, t);
            parseOperand(inst.get());
        } else if (opname == "phi") {
            Type t;
            if (cur().kind != Tok::Ident || !typeFromName(cur().text, t)) {
                err("expected phi type");
                return;
            }
            bump();
            inst = std::make_unique<Instruction>(Opcode::Phi, t);
            while (cur().kind == Tok::LBracket) {
                bump();
                parseOperand(inst.get());
                if (!expect(Tok::Comma, "','"))
                    return;
                if (cur().kind != Tok::Ident) {
                    err("expected block label in phi");
                    return;
                }
                BasicBlock *in = blockRef(cur().text);
                bump();
                if (!expect(Tok::RBracket, "']'"))
                    return;
                inst->addBlockOp(in);
                if (cur().kind == Tok::Comma)
                    bump();
            }
        } else if (opname == "br") {
            inst = std::make_unique<Instruction>(Opcode::Br, Type::Void);
            if (cur().kind != Tok::Ident) {
                err("expected branch target");
                return;
            }
            inst->addBlockOp(blockRef(cur().text));
            bump();
        } else if (opname == "condbr") {
            inst = std::make_unique<Instruction>(Opcode::CondBr, Type::Void);
            parseOperand(inst.get());
            if (!expect(Tok::Comma, "','"))
                return;
            if (cur().kind != Tok::Ident) {
                err("expected true target");
                return;
            }
            inst->addBlockOp(blockRef(cur().text));
            bump();
            if (!expect(Tok::Comma, "','"))
                return;
            if (cur().kind != Tok::Ident) {
                err("expected false target");
                return;
            }
            inst->addBlockOp(blockRef(cur().text));
            bump();
        } else if (opname == "ret") {
            inst = std::make_unique<Instruction>(Opcode::Ret, Type::Void);
            // Optional operand: present unless the next token starts a new
            // statement or closes the body.
            if (cur().kind != Tok::RBrace &&
                !(cur().kind == Tok::Ident && peek().kind == Tok::Colon) &&
                !cur().firstOnLine)
                parseOperand(inst.get());
        } else if (opname == "unreachable") {
            inst = std::make_unique<Instruction>(Opcode::Unreachable,
                                                 Type::Void);
        } else if (opname == "call") {
            Function *callee = nullptr;
            Builtin b = Builtin::None;
            if (cur().kind == Tok::At) {
                callee = module_->findFunction(cur().text);
                if (!callee) {
                    err(strfmt("unknown function @%s", cur().text.c_str()));
                    return;
                }
            } else if (cur().kind == Tok::Dollar) {
                b = builtinFromName(cur().text);
                if (b == Builtin::None) {
                    err(strfmt("unknown builtin $%s", cur().text.c_str()));
                    return;
                }
            } else {
                err("expected @function or $builtin");
                return;
            }
            bump();
            Type ret =
                callee ? callee->returnType() : builtinResultType(b);
            inst = std::make_unique<Instruction>(Opcode::Call, ret);
            inst->setCallee(callee);
            inst->setBuiltin(b);
            if (!expect(Tok::LParen, "'('"))
                return;
            while (cur().kind != Tok::RParen && cur().kind != Tok::End &&
                   !diags_.hasErrors()) {
                parseOperand(inst.get());
                if (cur().kind == Tok::Comma)
                    bump();
            }
            expect(Tok::RParen, "')'");
        } else if (opname == "sched_hint") {
            inst =
                std::make_unique<Instruction>(Opcode::SchedHint, Type::Void);
            if (cur().kind != Tok::Int) {
                err("expected hint id");
                return;
            }
            inst->setHintId(uint64_t(cur().ival));
            bump();
        } else {
            Opcode op;
            if (!opcodeFromName(opname, op)) {
                diags_.error(oploc,
                             strfmt("unknown opcode '%s'", opname.c_str()));
                return;
            }
            Type t = Type::I64;
            if (op == Opcode::Store)
                t = Type::Void;
            else if (op >= Opcode::FAdd && op <= Opcode::FDiv)
                t = Type::F64;
            else if (op >= Opcode::ICmpEq && op <= Opcode::FCmpGe)
                t = Type::I1;
            else if (op == Opcode::SiToFp)
                t = Type::F64;
            else if (op == Opcode::Zext)
                t = Type::I64;
            else if (op == Opcode::PtrAdd)
                t = Type::Ptr;
            inst = std::make_unique<Instruction>(op, t);
            bool first = true;
            while (cur().kind != Tok::End) {
                if (!first) {
                    if (cur().kind != Tok::Comma)
                        break;
                    bump();
                }
                parseOperand(inst.get());
                first = false;
                if (cur().kind != Tok::Comma)
                    break;
            }
        }

        if (!inst)
            return;
        if (cur().kind == Tok::Tag) {
            inst->setTag(cur().text);
            bump();
        }
        inst->setLoc(oploc);
        Instruction *placed = bb->append(std::move(inst));
        if (placed->producesValue()) {
            std::string name =
                has_result ? result_name : strfmt("%u", next_value);
            ++next_value;
            values_[name] = placed;
        } else if (has_result) {
            err("instruction produces no value but has a result name");
        }
    }

    void
    resolveFixups()
    {
        for (const Fixup &fx : fixups_) {
            auto it = values_.find(fx.name);
            if (it == values_.end()) {
                diags_.error(fx.loc,
                             strfmt("undefined value %%%s",
                                    fx.name.c_str()));
                continue;
            }
            fx.inst->setOperand(fx.index, it->second);
        }
    }

    std::vector<Token> toks_;
    DiagEngine &diags_;
    size_t pos_ = 0;
    std::unique_ptr<Module> module_;
    std::unordered_map<std::string, Value *> values_;
    std::unordered_map<std::string, BasicBlock *> blocks_;
    std::vector<Fixup> fixups_;
};

} // namespace

std::unique_ptr<Module>
parseModule(const std::string &text, DiagEngine &diags)
{
    Lexer lexer(text, diags);
    std::vector<Token> toks = lexer.run();
    if (diags.hasErrors())
        return nullptr;
    Parser parser(std::move(toks), diags);
    return parser.run();
}

} // namespace conair::ir
