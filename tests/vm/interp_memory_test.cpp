/**
 * @file
 * The VM's memory model — globals, heap blocks, stack slots, their
 * faults and the guest memory budget — on every engine variant: each
 * case runs through testutil::kEngineVariants and requires the runs to
 * agree on everything semantic, failure message and memory digest
 * included.
 */
#include "conair/driver.h"
#include "tests/support/engine_variants.h"
#include "tests/vm/vm_test_util.h"

namespace conair::vm {
namespace {

using conair::testutil::runEveryVariant;
using testutil::compileC;

/** Compiles @p src and runs it on every engine variant (see
 *  runEveryVariant); returns the production engine's run. */
RunResult
runEvery(const std::string &src, const VmConfig &cfg = {})
{
    auto m = compileC(src);
    if (!m)
        return {};
    return runEveryVariant(*m, cfg);
}

/** runEvery on the ConAir-hardened build of @p src. */
RunResult
runHardened(const std::string &src, const VmConfig &cfg,
            const ca::ConAirOptions &opts = {})
{
    auto m = compileC(src);
    if (!m)
        return {};
    ca::applyConAir(*m, opts);
    return runEveryVariant(*m, cfg);
}

TEST(InterpMemory, GlobalsAreInitialised)
{
    RunResult r = runEvery(R"(
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
    RunResult r = runEvery(R"(
int g;
int arr[3];
int main() { return g + arr[0] + arr[2]; }
)");
    EXPECT_EQ(r.exitCode, 0);
}

TEST(InterpMemory, MallocFreeLifecycle)
{
    RunResult r = runEvery(R"(
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
    RunResult r = runEvery(R"(
int* gp;
int main() { return gp[0]; }
)");
    EXPECT_EQ(r.outcome, Outcome::Segfault);
    EXPECT_EQ(r.failureMsg, "load through null pointer");
    EXPECT_NE(r.failureTag.find("deref.main."), std::string::npos);
}

TEST(InterpMemory, UseAfterFreeSegfaults)
{
    RunResult r = runEvery(R"(
int main() {
    int* p = malloc(2);
    free(p);
    return p[0];
}
)");
    EXPECT_EQ(r.outcome, Outcome::Segfault);
    EXPECT_EQ(r.failureMsg, "load after free");
}

TEST(InterpMemory, HeapOutOfBoundsSegfaults)
{
    RunResult r = runEvery(R"(
int main() {
    int* p = malloc(2);
    return p[5];
}
)");
    EXPECT_EQ(r.outcome, Outcome::Segfault);
    EXPECT_EQ(r.failureMsg, "load out of heap block bounds");
}

TEST(InterpMemory, GlobalOutOfBoundsSegfaults)
{
    RunResult r = runEvery(R"(
int arr[2];
int main() {
    int i = 10;
    return arr[i];
}
)");
    EXPECT_EQ(r.outcome, Outcome::Segfault);
    EXPECT_EQ(r.failureMsg, "load out of global bounds");
}

TEST(InterpMemory, DoubleFreeTraps)
{
    RunResult r = runEvery(R"(
int main() {
    int* p = malloc(1);
    free(p);
    free(p);
    return 0;
}
)");
    EXPECT_EQ(r.outcome, Outcome::Trap);
    EXPECT_EQ(r.failureMsg, "double or invalid free");
}

TEST(InterpMemory, FreeNullIsNoop)
{
    RunResult r = runEvery(R"(
int* gp;
int main() { free(gp); return 0; }
)");
    EXPECT_EQ(r.outcome, Outcome::Success);
}

TEST(InterpMemory, DanglingStackPointerSegfaults)
{
    RunResult r = runEvery(R"(
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
    EXPECT_EQ(r.failureMsg, "load through dangling stack pointer");
}

TEST(InterpMemory, PointerArithmeticWalksCells)
{
    RunResult r = runEvery(R"(
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
    RunResult r = runEvery(R"(
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
    RunResult r = runEvery(R"(
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
    RunResult r = runEvery(R"(
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
    RunResult r = runEvery(R"(
int main() {
    int *p = malloc(1 << 40);
    p[0] = 1;
    return 0;
}
)");
    EXPECT_EQ(r.outcome, Outcome::Trap);
    EXPECT_NE(r.failureMsg.find("block limit"), std::string::npos)
        << r.failureMsg;
}

TEST(InterpMemory, CalleeWritesIntoAnArrayTwoFramesUp)
{
    RunResult r = runEvery(R"(
void fill(int* a, int i) { a[i] = i * 3; }
void each(int* a) {
    for (int i = 0; i < 4; i++) fill(a, i);
}
int main() {
    int arr[4];
    each(arr);
    return arr[0] + arr[1] + arr[2] + arr[3];
}
)");
    EXPECT_EQ(r.outcome, Outcome::Success) << r.failureMsg;
    EXPECT_EQ(r.exitCode, 18);
}

TEST(InterpMemory, EveryLevelWritesIntoItsCallersArray)
{
    // Every frame of the recursion holds a slot, so each access must
    // pick the right one among them.
    RunResult r = runEvery(R"(
int level(int* parent, int n) {
    int mine[2];
    mine[0] = n;
    mine[1] = 0;
    parent[1] = parent[1] + n;
    if (n > 0) level(mine, n - 1);
    return mine[0] * 10 + mine[1];
}
int main() {
    int top[2];
    top[1] = 0;
    int r = level(top, 5);
    return top[1] * 100 + r;
}
)");
    EXPECT_EQ(r.outcome, Outcome::Success) << r.failureMsg;
    EXPECT_EQ(r.exitCode, 554);
}

TEST(InterpMemory, WorkerWritesIntoMainsLocalArray)
{
    RunResult r = runEvery(R"(
int* gp;
int worker(int n) {
    gp[n] = n * 10;
    return 0;
}
int main() {
    int arr[3];
    arr[0] = 1;
    gp = arr;
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1);
    join(t2);
    print(arr[0] + arr[1] + arr[2]);
    return arr[2];
}
)");
    EXPECT_EQ(r.outcome, Outcome::Success) << r.failureMsg;
    EXPECT_EQ(r.output, "31");
    EXPECT_EQ(r.exitCode, 20);
}

TEST(InterpMemory, ForeignSlotDiesWithItsFrame)
{
    // The reader sees the owner's local array while the owner's frame
    // is live; once the owner has returned, the same read must fault.
    RunResult r = runEvery(R"(
int* gp;
int ready;
int seen;
int owner(int x) {
    int local[2];
    local[1] = x;
    gp = local;
    ready = 1;
    while (seen == 0) yield();
    return 0;
}
int reader(int tid) {
    while (ready == 0) yield();
    print(gp[1]);
    seen = 1;
    join(tid);
    return gp[1];
}
int main() {
    int t1 = spawn(owner, 41);
    int t2 = spawn(reader, t1);
    join(t2);
    return 0;
}
)");
    EXPECT_EQ(r.outcome, Outcome::Segfault);
    EXPECT_EQ(r.output, "41");
    EXPECT_EQ(r.failureMsg, "load through dangling stack pointer");
}

TEST(InterpMemory, OutOfBoundsInsideALiveSlotSegfaults)
{
    RunResult load = runEvery(R"(
int main() {
    int a[2];
    int i = 5;
    a[0] = 1;
    return a[i];
}
)");
    EXPECT_EQ(load.outcome, Outcome::Segfault);
    EXPECT_EQ(load.failureMsg, "load out of stack slot bounds");

    RunResult store = runEvery(R"(
int main() {
    int a[2];
    int i = 0 - 1;
    a[i] = 3;
    return 0;
}
)");
    EXPECT_EQ(store.outcome, Outcome::Segfault);
    EXPECT_EQ(store.failureMsg, "store out of stack slot bounds");
}

TEST(InterpMemory, PtrCheckRejectsDanglingAndFreedPointers)
{
    // The hardened derefs are guarded by conair.ptr_check: a dangling
    // stack pointer and a freed block both fail it, so every retry
    // rolls back and the original segfault surfaces after the budget.
    VmConfig cfg;
    cfg.maxRetries = 3;
    RunResult dangling = runHardened(R"(
int* gp;
void leak(int x) {
    int local[2];
    local[0] = x;
    gp = local;
}
int main() {
    leak(5);
    return gp[0];
}
)",
                                     cfg);
    EXPECT_EQ(dangling.outcome, Outcome::Segfault);
    EXPECT_EQ(dangling.failureMsg, "load through dangling stack pointer");
    EXPECT_EQ(dangling.stats.rollbacks, 3u);

    RunResult freed = runHardened(R"(
int* hp;
int main() {
    hp = malloc(2);
    hp[0] = 7;
    free(hp);
    return hp[0];
}
)",
                                  cfg);
    EXPECT_EQ(freed.outcome, Outcome::Segfault);
    EXPECT_EQ(freed.failureMsg, "load after free");
    EXPECT_EQ(freed.stats.rollbacks, 3u);
}

TEST(InterpMemory, MemDigestCoversLiveStackSlots)
{
    // Both runs fail with main's local array live; they differ only in
    // what the array holds.
    auto failWith = [](int v) {
        return runEvery(R"(
int main() {
    int a[3];
    a[1] = )" + std::to_string(v) + R"(;
    assert(a[0] == 1);
    return 0;
}
)");
    };
    RunResult a = failWith(5);
    RunResult b = failWith(6);
    EXPECT_EQ(a.outcome, Outcome::AssertFail);
    EXPECT_EQ(b.outcome, Outcome::AssertFail);
    EXPECT_EQ(a.stats.steps, b.stats.steps);
    EXPECT_NE(a.memDigest, b.memDigest);
}

TEST(InterpMemory, CheckpointLocalsRollbackRestoresTheArray)
{
    // The failing thread stages the shared flag through a local array;
    // the local-writes checkpoint saves the array, so reexecution
    // re-stages the (eventually published) flag.
    VmConfig cfg;
    cfg.delays = {{1, 4'000}};
    cfg.maxRetries = 2'000;
    ca::ConAirOptions opts;
    opts.regionPolicy.allowLocalWrites = true;
    RunResult r = runHardened(R"(
int flag;
int setter(int x) {
    hint(1);
    flag = 1;
    return 0;
}
int main() {
    int t = spawn(setter, 0);
    int staged[2];
    staged[1] = 9;
    staged[0] = flag;
    int v = staged[0];
    oracle(v == 1);
    print("v=", v, " ", staged[1], "\n");
    join(t);
    return 0;
}
)",
                              cfg, opts);
    EXPECT_EQ(r.outcome, Outcome::Success) << r.failureMsg;
    EXPECT_EQ(r.output, "v=1 9\n");
    EXPECT_GT(r.stats.rollbacks, 0u);
}

TEST(InterpMemory, WholeProgramRestoreKeepsLiveLocalArrays)
{
    // Snapshots land while main's local array is live; the restore
    // brings the array back with main's frame.
    VmConfig wp;
    wp.quantum = 30;
    wp.delays = {{1, 2'000, 1}, {2, 6'000, 1}}; // transient anomaly
    wp.wpCheckpointInterval = 40;
    wp.wpMaxRecoveries = 10;
    RunResult r = runEvery(R"(
int flag = 1;
int flipper(int x) {
    flag = 0;
    hint(2);
    flag = 1;
    return 0;
}
int main() {
    int local[4];
    for (int i = 0; i < 4; i++) local[i] = i + 1;
    int t = spawn(flipper, 0);
    int first = flag;
    hint(1);
    assert(flag == first);
    join(t);
    print(local[0] + local[3]);
    return local[1];
}
)",
                           wp);
    EXPECT_EQ(r.outcome, Outcome::Success) << r.failureMsg;
    EXPECT_EQ(r.output, "5");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_GE(r.stats.wpRecoveries, 1u);
}

// The guest memory budget (kGuestMemoryBytes): a guest that would
// exhaust the host traps instead, identically on every engine.

const std::string kBudgetMsg = "guest memory exceeds the " +
                               std::to_string(kGuestMemoryBytes) +
                               "-byte budget";

TEST(InterpMemory, UnboundedRecursionTraps)
{
    RunResult r = runEvery(
        "int f(int n) { return f(n + 1); } int main() { return f(0); }");
    EXPECT_EQ(r.outcome, Outcome::Trap);
    EXPECT_EQ(r.failureMsg, kBudgetMsg);
}

TEST(InterpMemory, UnboundedHeapGrowthTraps)
{
    RunResult r = runEvery(R"(
int main() {
    while (1) { int *p = malloc(16000000); }
    return 0;
}
)");
    EXPECT_EQ(r.outcome, Outcome::Trap);
    EXPECT_EQ(r.failureMsg, kBudgetMsg);
}

TEST(InterpMemory, OversizedGlobalsTrapBeforeMain)
{
    std::string src;
    for (int i = 1; i <= 5; ++i)
        src += "int g" + std::to_string(i) + "[16777216];\n";
    src += "int main() { print(1); return g1[0]; }\n";
    RunResult r = runEvery(src);
    EXPECT_EQ(r.outcome, Outcome::Trap);
    EXPECT_EQ(r.failureMsg, kBudgetMsg);
    EXPECT_EQ(r.stats.steps, 0u);
    EXPECT_EQ(r.output, "");
}

TEST(InterpMemory, DeepRecursionStaysWithinTheBudget)
{
    RunResult r = runEvery(R"(
int depth(int n) {
    if (n == 0) return 0;
    return depth(n - 1) + 1;
}
int main() { return depth(100000) == 100000; }
)");
    EXPECT_EQ(r.outcome, Outcome::Success) << r.failureMsg;
    EXPECT_EQ(r.exitCode, 1);
}

} // namespace
} // namespace conair::vm
