#include <gtest/gtest.h>

#include "frontend/compile.h"
#include "frontend/parser.h"
#include "ir/type.h"

namespace conair::fe {
namespace {

std::unique_ptr<Program>
parseOk(const std::string &src)
{
    DiagEngine d;
    auto p = parseProgram(src, d);
    EXPECT_TRUE(p) << d.str();
    return p;
}

void
parseErr(const std::string &src)
{
    DiagEngine d;
    auto p = parseProgram(src, d);
    EXPECT_FALSE(p);
    EXPECT_TRUE(d.hasErrors());
}

TEST(Parser, GlobalsAndMutexes)
{
    auto p = parseOk(R"(
int counter = 5;
double weights[4] = {1.0, 2.0, 3.0, 4.0};
mutex lk;
int* head;
int table[100];
)");
    ASSERT_EQ(p->globals.size(), 5u);
    EXPECT_EQ(p->globals[0].name, "counter");
    ASSERT_TRUE(p->globals[0].hasInit);
    EXPECT_EQ(p->globals[0].initInt[0], 5);
    EXPECT_EQ(p->globals[1].arraySize, 4);
    EXPECT_EQ(p->globals[1].initFp.size(), 4u);
    EXPECT_TRUE(p->globals[2].isMutex);
    EXPECT_EQ(p->globals[3].type.ptr, 1);
    EXPECT_EQ(p->globals[4].arraySize, 100);
}

TEST(Parser, FunctionSignature)
{
    auto p = parseOk("double scale(double x, int* out) { return x; }");
    ASSERT_EQ(p->functions.size(), 1u);
    const FuncDecl &f = *p->functions[0];
    EXPECT_EQ(f.name, "scale");
    EXPECT_TRUE(f.returnType.isDouble());
    ASSERT_EQ(f.params.size(), 2u);
    EXPECT_TRUE(f.params[0].type.isDouble());
    EXPECT_EQ(f.params[1].type.ptr, 1);
}

TEST(Parser, PrecedenceShapesTree)
{
    auto p = parseOk("int main() { int x = 1 + 2 * 3; return x; }");
    const Stmt &decl = *p->functions[0]->body->kids[0];
    ASSERT_EQ(decl.kind, StmtKind::VarDecl);
    const Expr &sum = *decl.expr;
    ASSERT_EQ(sum.kind, ExprKind::Binary);
    EXPECT_EQ(sum.text, "+");
    EXPECT_EQ(sum.kids[1]->text, "*"); // * binds tighter
}

TEST(Parser, AssignIsRightAssociative)
{
    auto p = parseOk("int main() { int a; int b; a = b = 3; return a; }");
    const Stmt &st = *p->functions[0]->body->kids[2];
    const Expr &outer = *st.expr;
    ASSERT_EQ(outer.kind, ExprKind::Assign);
    EXPECT_EQ(outer.kids[1]->kind, ExprKind::Assign);
}

TEST(Parser, ControlFlowStatements)
{
    auto p = parseOk(R"(
int main() {
    int i;
    for (i = 0; i < 10; i = i + 1) {
        if (i == 5) break;
        else continue;
    }
    while (i > 0) i = i - 1;
    return i;
}
)");
    const Stmt &body = *p->functions[0]->body;
    EXPECT_EQ(body.kids[1]->kind, StmtKind::For);
    EXPECT_EQ(body.kids[2]->kind, StmtKind::While);
}

TEST(Parser, UnaryAndPointerExpr)
{
    auto p = parseOk("int main() { int x; int* p; p = &x; *p = -*p; "
                     "return p[0]; }");
    const Stmt &ret = *p->functions[0]->body->kids.back();
    ASSERT_EQ(ret.kind, StmtKind::Return);
    EXPECT_EQ(ret.expr->kind, ExprKind::Index);
}

TEST(Parser, IncrementSugar)
{
    auto p = parseOk("int main() { int i = 0; i++; ++i; i--; return i; }");
    const Stmt &st = *p->functions[0]->body->kids[1];
    ASSERT_EQ(st.kind, StmtKind::ExprStmt);
    EXPECT_EQ(st.expr->kind, ExprKind::Assign);
    EXPECT_EQ(st.expr->text, "+=");
}

TEST(Parser, CallsWithArguments)
{
    auto p = parseOk(R"(
int work(int a, int b) { return a + b; }
int main() { return work(1, work(2, 3)); }
)");
    const Stmt &ret = *p->functions[1]->body->kids[0];
    ASSERT_EQ(ret.expr->kind, ExprKind::Call);
    EXPECT_EQ(ret.expr->kids.size(), 2u);
    EXPECT_EQ(ret.expr->kids[1]->kind, ExprKind::Call);
}

TEST(Parser, Errors)
{
    parseErr("int main() { return 0 }");     // missing ';'
    parseErr("int main() { if (x) }");       // missing statement body
    parseErr("int main( { return 0; }");     // bad parameter list
    parseErr("banana main() { return 0; }"); // unknown type
    parseErr("int main() { int a[x]; return 0; }"); // non-const size
}

/** @p n nested parentheses around a literal, returned from main. */
std::string
nestedParens(size_t n)
{
    return "int main() { return " + std::string(n, '(') + "1" +
           std::string(n, ')') + "; }\n";
}

/** @p n nested empty blocks in main's body. */
std::string
nestedBlocks(size_t n)
{
    return "int main() { " + std::string(n, '{') + std::string(n, '}') +
           " return 0; }\n";
}

/** Parses @p src expecting exactly one diagnostic, at a line:col,
 *  that contains @p what. */
void
expectOneError(const std::string &src, const std::string &what)
{
    DiagEngine d;
    EXPECT_FALSE(parseProgram(src, d));
    ASSERT_EQ(d.diags().size(), 1u) << d.str();
    EXPECT_NE(d.str().find(what), std::string::npos) << d.str();
    EXPECT_TRUE(d.diags()[0].loc.valid());
}

/** Parses @p src expecting exactly one diagnostic: nesting too deep. */
void
expectTooDeep(const std::string &src)
{
    expectOneError(src, "nesting too deep");
}

TEST(Parser, DeepNestingIsADiagnosticNotACrash)
{
    // Both overflowed the host stack before the nesting limit.
    expectTooDeep(nestedParens(100'000));
    expectTooDeep(nestedBlocks(50'000));
    // Prefix operators and chained assignments nest too.
    std::string negs;
    for (int i = 0; i < 50'000; ++i)
        negs += "- ";
    expectTooDeep("int main() { return " + negs + "1; }");
    std::string assigns;
    for (int i = 0; i < 50'000; ++i)
        assigns += "a = ";
    expectTooDeep("int main() { int a; " + assigns + "1; return a; }");
}

TEST(Parser, NestingAtTheLimitStillCompiles)
{
    // Each block is one level; main's body itself is not.
    DiagEngine d;
    EXPECT_TRUE(fe::compileMiniC(nestedBlocks(kMaxNesting), d)) << d.str();
    expectTooDeep(nestedBlocks(kMaxNesting + 1));
    // The return statement and the literal take one level each, every
    // parenthesis one more.
    DiagEngine dp;
    EXPECT_TRUE(fe::compileMiniC(nestedParens(kMaxNesting - 2), dp))
        << dp.str();
    expectTooDeep(nestedParens(kMaxNesting - 1));
}

/** main returning @p n copies of @p term joined by @p op, after
 *  declaring `int x = 1;`. */
std::string
flatChain(size_t n, const std::string &op, const std::string &term)
{
    std::string src = "int main() { int x = 1; return " + term;
    for (size_t i = 1; i < n; ++i)
        src += op + term;
    return src + "; }\n";
}

TEST(Parser, LongOperatorChainsAreADiagnosticNotACrash)
{
    // The parser builds a flat chain in a loop, so only the expression
    // depth limit sees it; both overflowed the host stack in code
    // generation (+) and condition lowering (&&) before it.
    expectOneError(flatChain(100'000, "+", "1"), "expression too deep");
    expectOneError(flatChain(100'000, " && ", "x"), "expression too deep");
    // Subscripts chain the same way.
    std::string subscripts = "int main() { int a[1]; return a";
    for (int i = 0; i < 100'000; ++i)
        subscripts += "[0]";
    expectOneError(subscripts + "; }", "expression too deep");
}

TEST(Parser, ChainAtTheDepthLimitStillCompiles)
{
    // n terms make a tree n levels tall.
    for (const char *op : {"+", " && "}) {
        DiagEngine d;
        EXPECT_TRUE(
            fe::compileMiniC(flatChain(kMaxExprDepth, op, "x"), d))
            << op << ": " << d.str();
        expectOneError(flatChain(kMaxExprDepth + 1, op, "x"),
                       "expression too deep");
    }
}

TEST(Parser, RejectedArraySizeIsOneDiagnostic)
{
    const std::string limitMsg = "exceeds the 16777216-cell block limit";
    expectOneError("int main() { int a[99999999999]; return 0; }",
                   limitMsg);
    expectOneError("int main() { int a[x]; return 0; }",
                   "expected array size");
    expectOneError("int g[99999999999]; int main() { return 0; }",
                   limitMsg);
    expectOneError("int g[x]; int main() { return 0; }",
                   "expected array size");
    // Without its ']', the size is skipped up to the ';'.
    expectOneError("int main() { int a[x; return 0; }",
                   "expected array size");
}

TEST(Parser, RejectsArraysLargerThanABlock)
{
    // Parsing a size allocates nothing; never run a program at the
    // limit (2^24 cells are about 640 MB).
    const std::string limit = std::to_string(ir::kMaxBlockCells);
    const std::string over = std::to_string(ir::kMaxBlockCells + 1);
    parseOk("int g[" + limit + "];");
    parseOk("int main() { int a[" + limit + "]; return 0; }");
    for (const std::string &src :
         {"int g[" + over + "];",
          "int main() { int a[" + over + "]; return 0; }",
          std::string("int g[99999999999];")}) {
        DiagEngine d;
        EXPECT_FALSE(parseProgram(src, d)) << src;
        EXPECT_NE(d.str().find("exceeds the 16777216-cell block limit"),
                  std::string::npos)
            << d.str();
    }
}

} // namespace
} // namespace conair::fe
