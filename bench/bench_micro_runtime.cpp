/**
 * @file
 * Microbenchmarks (google-benchmark) of the runtime primitives behind
 * the paper's performance claims: the per-checkpoint cost (the "few
 * nanoseconds" setjmp of §3.2.1), rollback, pointer sanity checks,
 * compensation logging, plus the substrate itself (compilation and
 * pipeline throughput).
 */
#include <benchmark/benchmark.h>

#include "apps/app_spec.h"
#include "conair/driver.h"
#include "frontend/compile.h"
#include "ir/parser.h"
#include "vm/interp.h"

using namespace conair;

namespace {

std::unique_ptr<ir::Module>
parseOrDie(const std::string &text)
{
    DiagEngine d;
    auto m = ir::parseModule(text, d);
    if (!m)
        fatal(d.str());
    return m;
}

/** N checkpoint executions vs the same loop without them. */
void
BM_CheckpointExecution(benchmark::State &state)
{
    auto m = parseOrDie(R"(
func @main() -> i64 {
entry:
    br loop
loop:
    %i = phi i64 [0, entry], [%n, loop]
    call $conair.checkpoint(0)
    %n = add %i, 1
    %c = icmp.slt %n, 10000
    condbr %c, loop, done
done:
    ret 0
}
)");
    for (auto _ : state) {
        vm::RunResult r = vm::runProgram(*m);
        benchmark::DoNotOptimize(r.stats.checkpointsExecuted);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_CheckpointExecution);

/** Rollback + compensation round trips. */
void
BM_RollbackRoundTrip(benchmark::State &state)
{
    auto m = parseOrDie(R"(
global @flag : i64[1]

func @main() -> i64 {
entry:
    br loop
loop:
    %i = phi i64 [0, entry], [%n, retryjoin]
    call $conair.checkpoint(0)
    br region
region:
    %v = load i64, @flag
    %ok = icmp.eq %v, 1
    condbr %ok, never, fail
fail:
    call $conair.try_rollback(1)
    br retryjoin
never:
    br retryjoin
retryjoin:
    %n = add %i, 1
    %c = icmp.slt %n, 1000
    condbr %c, loop, done
done:
    ret 0
}
)");
    vm::VmConfig cfg;
    cfg.maxRetries = 1; // one rollback per site visit, then give up
    for (auto _ : state) {
        // Fresh retry budget per run.
        vm::RunResult r = vm::runProgram(*m, cfg);
        benchmark::DoNotOptimize(r.stats.rollbacks);
    }
}
BENCHMARK(BM_RollbackRoundTrip);

/** MiniC compilation (lex/parse/typecheck/lower/mem2reg). */
void
BM_CompileMysqlKernel(benchmark::State &state)
{
    const apps::AppSpec *app = apps::findApp("MySQL1");
    for (auto _ : state) {
        DiagEngine d;
        auto m = fe::compileMiniC(app->source, d);
        benchmark::DoNotOptimize(m.get());
    }
}
BENCHMARK(BM_CompileMysqlKernel);

/** The full ConAir pipeline on the largest kernel. */
void
BM_ConAirPipelineMysql(benchmark::State &state)
{
    const apps::AppSpec *app = apps::findApp("MySQL1");
    for (auto _ : state) {
        DiagEngine d;
        auto m = fe::compileMiniC(app->source, d);
        ca::ConAirReport r = ca::applyConAir(*m);
        benchmark::DoNotOptimize(r.staticReexecPoints);
    }
}
BENCHMARK(BM_ConAirPipelineMysql);

/** Pointer sanity checks (the Fig 5c instrumentation). */
void
BM_PtrCheckExecution(benchmark::State &state)
{
    auto m = parseOrDie(R"(
func @main() -> i64 {
entry:
    %p = call $malloc(4)
    br loop
loop:
    %i = phi i64 [0, entry], [%n, loop]
    %ok = call $conair.ptr_check(%p)
    %z = zext %ok
    %n = add %i, %z
    %c = icmp.slt %n, 10000
    condbr %c, loop, done
done:
    ret %i
}
)");
    for (auto _ : state) {
        vm::RunResult r = vm::runProgram(*m);
        benchmark::DoNotOptimize(r.exitCode);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_PtrCheckExecution);

} // namespace

BENCHMARK_MAIN();
