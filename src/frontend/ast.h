/**
 * @file
 * The MiniC abstract syntax tree.
 *
 * Nodes are tagged structs rather than a class hierarchy: the language
 * is small and the two consumers (type-checking code generator, tests)
 * switch over kinds anyway.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/diag.h"

namespace conair::fe {

/** A MiniC static type: base type plus pointer depth. */
struct TypeRef
{
    enum class Base : uint8_t { Int, Double, Void };

    Base base = Base::Int;
    uint8_t ptr = 0; ///< pointer depth ("int**" -> 2)

    bool operator==(const TypeRef &o) const = default;

    bool isVoid() const { return base == Base::Void && ptr == 0; }
    bool isPointer() const { return ptr > 0; }
    bool isInt() const { return base == Base::Int && ptr == 0; }
    bool isDouble() const { return base == Base::Double && ptr == 0; }

    TypeRef
    pointee() const
    {
        TypeRef t = *this;
        if (t.ptr)
            --t.ptr;
        return t;
    }

    TypeRef
    pointerTo() const
    {
        TypeRef t = *this;
        ++t.ptr;
        return t;
    }

    std::string str() const;
};

/** Expression node kinds. */
enum class ExprKind : uint8_t {
    IntLit,   ///< ival
    FloatLit, ///< fval
    StrLit,   ///< text (only valid as a print()/assert-message argument)
    Ident,    ///< text = name
    Unary,    ///< op in text ("-", "!"), kids[0]
    Binary,   ///< op in text ("+", "==", "&&", ...), kids[0], kids[1]
    Assign,   ///< kids[0] = kids[1]; text is "=", "+=", or "-="
    Call,     ///< text = callee name, kids = arguments
    Index,    ///< kids[0] [ kids[1] ]
    Deref,    ///< * kids[0]
    AddrOf,   ///< & kids[0]
};

/** One expression node. */
struct Expr
{
    ExprKind kind;
    SrcLoc loc;
    int64_t ival = 0;
    double fval = 0.0;
    std::string text;
    std::vector<std::unique_ptr<Expr>> kids;
    /** Levels in this subtree, a leaf being 1; the parser keeps it and
     *  bounds it by kMaxExprDepth (parser.h). */
    unsigned height = 1;

    /** Filled in by the code generator's type checker. */
    TypeRef type;
};

/** Statement node kinds. */
enum class StmtKind : uint8_t {
    Block,    ///< kids
    VarDecl,  ///< declType text[arraySize]; init = expr (optional)
    ExprStmt, ///< expr
    If,       ///< expr; kids[0] = then, kids[1] = else (optional)
    While,    ///< expr; kids[0] = body
    For,      ///< init/step in forInit/forStep; expr = cond; kids[0]=body
    Return,   ///< expr (optional)
    Break,
    Continue,
};

/** One statement node. */
struct Stmt
{
    StmtKind kind;
    SrcLoc loc;
    TypeRef declType;
    std::string text;      ///< VarDecl name
    int64_t arraySize = 0; ///< VarDecl: 0 = scalar, >0 = local array
    std::unique_ptr<Expr> expr;
    std::unique_ptr<Stmt> forInit;
    std::unique_ptr<Expr> forStep;
    std::vector<std::unique_ptr<Stmt>> kids;
};

/** A function parameter. */
struct Param
{
    TypeRef type;
    std::string name;
    SrcLoc loc;
};

/** A top-level function definition. */
struct FuncDecl
{
    TypeRef returnType;
    std::string name;
    std::vector<Param> params;
    std::unique_ptr<Stmt> body;
    SrcLoc loc;
};

/** A top-level variable (global) definition. */
struct GlobalDecl
{
    TypeRef type;
    std::string name;
    int64_t arraySize = 0; ///< 0 = scalar
    bool isMutex = false;
    std::vector<double> initFp;
    std::vector<int64_t> initInt;
    bool hasInit = false;
    SrcLoc loc;
};

/** A whole MiniC translation unit. */
struct Program
{
    std::vector<GlobalDecl> globals;
    std::vector<std::unique_ptr<FuncDecl>> functions;
};

} // namespace conair::fe
