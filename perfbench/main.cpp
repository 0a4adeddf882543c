/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload campaign|repair|harden --seed N --seconds S
 *             --trace 0|1 [--workers N] [--out DIR]
 *
 * Runs one workload in this process for about S seconds of whole
 * passes, checks every operation's output, and prints, as the last
 * line of stdout, one JSON object {"correct", "attempted", "failed",
 * "metrics"}: the end-to-end metrics untraced, the per-layer metrics
 * with --trace 1.  The line before it ("perfbench-info {...}") records
 * the run's environment, labels and deterministic counts.  Exit status
 * is 0 only when every operation passed its check.  The run opens no
 * sockets and writes only under DIR (the traced run's span file).
 * README.md defines the workloads and every metric.
 */
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <string>

#include "perfbench/bench.h"
#include "support/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics every untraced run prints (BENCHMARK.json's
 *  end_to_end list).  failed_ratio is always 0 at a healthy commit, so
 *  it rides in the result's attempted/failed fields instead. */
const MetricDef kEndToEnd[] = {
    {"ops_per_s", "op/s"},       {"op_ms_p50", "ms"},
    {"op_ms_tail", "ms"},        {"hardened_overhead", "ratio"},
    {"recovery_vus_p50", "vus"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** The per-layer metrics every traced run prints (BENCHMARK.json's
 *  per_layer list).  A layer a workload never calls reads 0. */
const MetricDef kPerLayer[] = {
    {"frontend.compile_ms", "ms"},
    {"frontend.ir_insts", "count"},
    {"conair.harden_ms", "ms"},
    {"conair.sites", "count"},
    {"conair.reexec_points", "count"},
    {"conair.ir_growth", "ratio"},
    {"vm.construct_us", "us"},
    {"vm.run_us", "us"},
    {"vm.steps", "count"},
    {"vm.steps_per_s.decoded", "1/s"},
    {"vm.steps_per_s.reference", "1/s"},
    {"vm.steps_per_s.fused", "1/s"},
    {"vm.fast_path_share", "ratio"},
    {"vm.mem_cache_hit_ratio", "ratio"},
    {"vm.sched_ticks", "count"},
    {"vm.sched_switches", "count"},
    {"vm.lock_events", "count"},
    {"vm.overhead_steps", "ratio"},
    {"vm.recoveries", "count"},
    {"vm.rollbacks", "count"},
    {"explore.schedule_ms_p50", "ms"},
    {"explore.schedule_ms_p99", "ms"},
    {"explore.leg_unhardened_ms", "ms"},
    {"explore.leg_reference_ms", "ms"},
    {"explore.leg_hardened_ms", "ms"},
    {"explore.leg_hardened_reference_ms", "ms"},
    {"explore.self_ms", "ms"},
    {"explore.oracle_share", "ratio"},
    {"explore.vm_runs_per_schedule", "ratio"},
    {"explore.inconclusive", "count"},
    {"explore.failures_found", "count"},
    {"explore.schedules_to_failure", "count"},
    {"explore.coverage_edges", "count"},
    {"obs.observer_overhead", "ratio"},
    {"obs.record_ms", "ms"},
    {"obs.diagnose_ms", "ms"},
    {"obs.minimise_ms", "ms"},
    {"obs.minimise_probes", "count"},
    {"obs.trace_events", "count"},
    {"fix.synthesize_ms", "ms"},
    {"fix.edits", "count"},
    {"fix.validate_ms", "ms"},
    {"fix.validate_schedules", "count"},
    {"split.bench", "ratio"},
    {"split.frontend", "ratio"},
    {"split.conair", "ratio"},
    {"split.vm", "ratio"},
    {"split.explore", "ratio"},
    {"split.obs", "ratio"},
    {"split.fix", "ratio"},
    {"split.op_ms", "ms"},
    {"trace.overhead", "ratio"},
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload campaign|repair|harden "
                 "--seed N --seconds S --trace 0|1 [--workers N] "
                 "[--out DIR]\n",
                 msg);
    std::exit(2);
}

uint64_t
parseUnsigned(const char *flag, const char *v)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long x = std::strtoull(v, &end, 10);
    if (!*v || *end || errno || v[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return x;
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return unsigned(CPU_COUNT(&set));
    return 1;
}

Settings
parseArgs(int argc, char **argv)
{
    Settings s;
    s.nproc = usableCpus();
    s.outDir = ".bench_out";
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (i + 1 >= argc)
            usage((std::string("missing value for ") + flag).c_str());
        const char *v = argv[++i];
        if (!std::strcmp(flag, "--workload")) {
            s.workload = v;
            haveWorkload = true;
        } else if (!std::strcmp(flag, "--seed")) {
            s.seed = parseUnsigned(flag, v);
            haveSeed = true;
        } else if (!std::strcmp(flag, "--seconds")) {
            char *end = nullptr;
            s.seconds = std::strtod(v, &end);
            if (!*v || *end || !(s.seconds > 0) || s.seconds > 3600)
                usage("--seconds must be in (0, 3600]");
            haveSeconds = true;
        } else if (!std::strcmp(flag, "--trace")) {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                usage("--trace must be 0 or 1");
            s.trace = v[0] == '1';
            haveTrace = true;
        } else if (!std::strcmp(flag, "--workers")) {
            s.workers = unsigned(parseUnsigned(flag, v));
            if (s.workers == 0)
                usage("--workers must be at least 1");
            if (s.workers > s.nproc)
                usage(("--workers " + std::to_string(s.workers) +
                       " exceeds nproc " + std::to_string(s.nproc))
                          .c_str());
        } else if (!std::strcmp(flag, "--out")) {
            s.outDir = v;
        } else {
            usage((std::string("unknown flag ") + flag).c_str());
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (s.workload != "campaign" && s.workload != "repair" &&
        s.workload != "harden")
        usage(("unknown workload '" + s.workload + "'").c_str());
    // The pool size bench_explore and the --fix validator default to,
    // capped by the CPUs this process may use.
    if (s.workers == 0)
        s.workers = std::min(4u, s.nproc);
    return s;
}

double
finiteOr0(double v)
{
    return std::isfinite(v) ? v : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Settings s = parseArgs(argc, argv);
    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%u workers=%u build=%s compiler=%s\n",
                s.workload.c_str(), (unsigned long long)s.seed, s.seconds,
                int(s.trace), s.nproc, s.workers, PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER);
    std::fflush(stdout);

    Report rep;
    if (s.trace) {
        std::error_code ec;
        std::filesystem::create_directories(s.outDir, ec);
        if (ec)
            usage(("cannot create --out " + s.outDir).c_str());
    }
    if (s.workload == "campaign")
        runCampaignWorkload(s, rep);
    else if (s.workload == "repair")
        runRepairWorkload(s, rep);
    else
        runHardenWorkload(s, rep);
    rep.metric("peak_rss_mb", peakRssMb(), "MB");

    auto find = [&](const char *name) -> const Metric * {
        for (const Metric &m : rep.metrics)
            if (m.name == name)
                return &m;
        return nullptr;
    };
    // The result line carries exactly the metric set of this mode.  A
    // measured metric missing from an untraced run is a benchmark bug;
    // a per-layer metric of a layer the workload never calls reads 0.
    const MetricDef *defs = s.trace ? kPerLayer : kEndToEnd;
    const size_t ndefs =
        s.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
    for (size_t i = 0; !s.trace && i < ndefs; ++i)
        if (!find(defs[i].name))
            rep.fail(std::string("metric ") + defs[i].name +
                     " was not measured");
    if (rep.attempted == 0)
        rep.fail("no operation ran");
    rep.attempted = std::max(rep.attempted, rep.failed);

    // Every metric the workload measured, for the reader.
    for (const Metric &m : rep.metrics)
        std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &f : rep.failures)
        std::printf("FAILED: %s\n", f.c_str());
    const double failedRatio =
        rep.attempted ? double(rep.failed) / double(rep.attempted) : 0;
    std::printf("  %-36s %14.6g ratio (%llu failed of %llu ops)\n",
                "failed_ratio", failedRatio,
                (unsigned long long)rep.failed,
                (unsigned long long)rep.attempted);

    conair::JsonWriter info;
    info.beginObject();
    info.key("workload").value(s.workload);
    info.key("seed").value(uint64_t(s.seed));
    info.key("seconds").value(s.seconds, "%g");
    info.key("trace").value(s.trace);
    info.key("nproc").value(s.nproc);
    info.key("workers").value(s.workers);
    info.key("build_type").value(PERFBENCH_BUILD_TYPE);
    info.key("compiler").value(PERFBENCH_COMPILER);
    info.key("failed_ratio").value(failedRatio, "%.17g");
    info.key("failed_ratio_base").value(uint64_t(rep.attempted));
    for (const auto &[k, v] : rep.info)
        info.key(k).value(v);
    info.key("counts").beginObject();
    for (const auto &[k, v] : rep.counts)
        info.key(k).value(v, "%.17g");
    info.endObject();
    info.key("failures").beginArray();
    for (const std::string &f : rep.failures)
        info.value(f);
    info.endArray();
    info.endObject();
    std::printf("perfbench-info %s\n", info.str().c_str());

    conair::JsonWriter out;
    out.beginObject();
    out.key("correct").value(rep.failed == 0);
    out.key("attempted").value(uint64_t(rep.attempted));
    out.key("failed").value(uint64_t(rep.failed));
    out.key("metrics").beginObject();
    for (size_t i = 0; i < ndefs; ++i) {
        const Metric *m = find(defs[i].name);
        out.key(defs[i].name).beginObject();
        out.key("value").value(finiteOr0(m ? m->value : 0.0), "%.17g");
        out.key("unit").value(defs[i].unit);
        out.endObject();
    }
    out.endObject();
    out.endObject();
    std::printf("%s\n", out.str().c_str());
    return rep.failed == 0 ? 0 : 1;
}
