#include "tests/support/engine_variants.h"
#include "tests/vm/vm_test_util.h"

namespace conair::vm {
namespace {

using testutil::runC;

TEST(InterpMemory, GlobalsAreInitialised)
{
    RunResult r = runC(R"(
int scalar = 7;
int arr[4] = {1, 2, 3, 4};
double d = 2.5;
int main() {
    return scalar + arr[0] + arr[3] + (d > 2.0);
}
)");
    EXPECT_EQ(r.exitCode, 13);
}

TEST(InterpMemory, UninitialisedGlobalsAreZero)
{
    RunResult r = runC(R"(
int g;
int arr[3];
int main() { return g + arr[0] + arr[2]; }
)");
    EXPECT_EQ(r.exitCode, 0);
}

TEST(InterpMemory, MallocFreeLifecycle)
{
    RunResult r = runC(R"(
int main() {
    int* p = malloc(4);
    p[0] = 10;
    p[3] = 32;
    int v = p[0] + p[3];
    free(p);
    return v;
}
)");
    EXPECT_EQ(r.outcome, Outcome::Success);
    EXPECT_EQ(r.exitCode, 42);
}

TEST(InterpMemory, NullDerefSegfaults)
{
    RunResult r = runC(R"(
int* gp;
int main() { return gp[0]; }
)");
    EXPECT_EQ(r.outcome, Outcome::Segfault);
    EXPECT_NE(r.failureTag.find("deref.main."), std::string::npos);
}

TEST(InterpMemory, UseAfterFreeSegfaults)
{
    RunResult r = runC(R"(
int main() {
    int* p = malloc(2);
    free(p);
    return p[0];
}
)");
    EXPECT_EQ(r.outcome, Outcome::Segfault);
}

TEST(InterpMemory, HeapOutOfBoundsSegfaults)
{
    RunResult r = runC(R"(
int main() {
    int* p = malloc(2);
    return p[5];
}
)");
    EXPECT_EQ(r.outcome, Outcome::Segfault);
}

TEST(InterpMemory, GlobalOutOfBoundsSegfaults)
{
    RunResult r = runC(R"(
int arr[2];
int main() {
    int i = 10;
    return arr[i];
}
)");
    EXPECT_EQ(r.outcome, Outcome::Segfault);
}

TEST(InterpMemory, DoubleFreeTraps)
{
    RunResult r = runC(R"(
int main() {
    int* p = malloc(1);
    free(p);
    free(p);
    return 0;
}
)");
    EXPECT_EQ(r.outcome, Outcome::Trap);
}

TEST(InterpMemory, FreeNullIsNoop)
{
    RunResult r = runC(R"(
int* gp;
int main() { free(gp); return 0; }
)");
    EXPECT_EQ(r.outcome, Outcome::Success);
}

TEST(InterpMemory, DanglingStackPointerSegfaults)
{
    RunResult r = runC(R"(
int* leak(int x) {
    int local[2];
    local[0] = x;
    return local;
}
int main() {
    int* p = leak(5);
    return p[0];
}
)");
    EXPECT_EQ(r.outcome, Outcome::Segfault);
}

TEST(InterpMemory, PointerArithmeticWalksCells)
{
    RunResult r = runC(R"(
int main() {
    int* p = malloc(5);
    int* q = p;
    for (int i = 0; i < 5; i++) {
        *q = i * i;
        q = q + 1;
    }
    int acc = 0;
    for (int i = 0; i < 5; i++) acc += p[i];
    free(p);
    return acc;   // 0+1+4+9+16
}
)");
    EXPECT_EQ(r.exitCode, 30);
}

TEST(InterpMemory, AddressOfLocalWorksWithinLifetime)
{
    RunResult r = runC(R"(
void set(int* out, int v) { *out = v; }
int main() {
    int x = 0;
    set(&x, 9);
    return x;
}
)");
    EXPECT_EQ(r.exitCode, 9);
}

TEST(InterpMemory, SharedHeapBetweenThreads)
{
    RunResult r = runC(R"(
int* shared;
int worker(int n) {
    shared[n] = n * 10;
    return 0;
}
int main() {
    shared = malloc(4);
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    return shared[1] + shared[2];
}
)");
    EXPECT_EQ(r.exitCode, 30);
}

TEST(InterpMemory, DoubleArraysKeepPrecision)
{
    RunResult r = runC(R"(
double samples[3] = {0.25, 0.5, 0.125};
int main() {
    double acc = 0.0;
    for (int i = 0; i < 3; i++) acc += samples[i];
    return acc == 0.875;
}
)");
    EXPECT_EQ(r.exitCode, 1);
}

TEST(InterpMemory, OversizedMallocTrapsOnEveryEngine)
{
    // A block past ir::kMaxBlockCells would abort the host with
    // std::bad_alloc; the guest gets a trap instead.
    auto m = testutil::compileC(R"(
int main() {
    int *p = malloc(1 << 40);
    p[0] = 1;
    return 0;
}
)");
    ASSERT_TRUE(m);
    RunResult first;
    for (const conair::testutil::EngineVariant &v :
         conair::testutil::kEngineVariants) {
        VmConfig cfg;
        v.applyTo(cfg);
        RunResult r = runProgram(*m, cfg);
        EXPECT_EQ(r.outcome, Outcome::Trap) << v.name;
        EXPECT_NE(r.failureMsg.find("block limit"), std::string::npos)
            << v.name << ": " << r.failureMsg;
        if (&v == &conair::testutil::kEngineVariants[0])
            first = r;
        else
            conair::testutil::expectSameRun(first, r, v.name);
    }
}

} // namespace
} // namespace conair::vm
