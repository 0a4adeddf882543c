/**
 * @file
 * The harden workload: ConAir used as a compiler.  Op = one program,
 * from source to a verified hardened build: compileMiniC for both
 * builds, applyConAir in survival mode, one clean run of each build,
 * and, for the ten kernels, one failure-forced hardened run that must
 * recover.  A pass is the ten kernels under four run seeds each plus
 * forty generated programs (tests/property/program_gen) whose sizes
 * are drawn log-uniformly from 4 KB to 100 KB, one per size stratum so
 * that every seed draws the same size profile.
 */
#include <cmath>
#include <optional>

#include "perfbench/bench.h"
#include "support/rng.h"
#include "tests/property/program_gen.h"
#include "vm/interp.h"

namespace perfbench {

using namespace conair;

namespace {

constexpr unsigned kKernelRuns = 16; ///< run seeds per kernel per pass
constexpr unsigned kGenerated = 80; ///< generated programs per pass
constexpr double kMinBytes = 4096;
constexpr double kMaxBytes = 102400;

struct Program
{
    std::string name;
    std::string source;                  ///< generated programs only
    const apps::AppSpec *spec = nullptr; ///< kernels only
    uint64_t runSeed = 0;
    unsigned index = 0; ///< even: plain build runs first
};

/**
 * A generated program of about @p bytes of source.  program_gen emits
 * 1..maxFunctions helpers of roughly 1 KB each on top of about 2 KB,
 * so pick maxFunctions for the size and keep the closest of eight
 * draws (a fixed count, so set-up work does not depend on the seed).
 */
std::string
generateSized(uint64_t seed, double bytes)
{
    proptest::GenOptions opts;
    opts.maxFunctions =
        unsigned(std::max(1.0, std::round(2.0 * (bytes - 2000) / 1050)));
    Rng rng(seed);
    std::string best;
    double bestErr = 0;
    for (int i = 0; i < 8; ++i) {
        std::string src = proptest::generateProgram(rng.next(), opts);
        double err = std::fabs(std::log(double(src.size()) / bytes));
        if (best.empty() || err < bestErr) {
            best = std::move(src);
            bestErr = err;
        }
    }
    return best;
}

/** The pass's inputs, all drawn from the workload seed. */
std::vector<Program>
makeInputs(uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x68617264656eull);
    std::vector<Program> ps;
    for (const apps::AppSpec &spec : apps::allApps())
        for (unsigned r = 0; r < kKernelRuns; ++r) {
            Program p;
            p.name = spec.name;
            p.spec = &spec;
            p.runSeed = rng.next();
            p.index = r;
            ps.push_back(std::move(p));
        }
    const double lo = std::log(kMinBytes);
    const double width = (std::log(kMaxBytes) - lo) / kGenerated;
    for (unsigned i = 0; i < kGenerated; ++i) {
        Program p;
        p.name = "gen" + std::to_string(i);
        double u = double(rng.range(1u << 20)) / double(1u << 20);
        p.source = generateSized(rng.next(), std::exp(lo + width * (i + u)));
        p.runSeed = rng.next();
        p.index = i;
        ps.push_back(std::move(p));
    }
    return ps;
}

struct TimedRun
{
    vm::RunResult result;
    double us = 0; ///< construction + run
};

/** One VM run through vm::Interp, construction and run spanned apart. */
TimedRun
runVm(const ir::Module &m, const vm::VmConfig &cfg, SpanLog &log,
      uint64_t op)
{
    TimedRun t;
    Clock::time_point t0 = Clock::now();
    std::optional<vm::Interp> interp;
    {
        auto span = log.open("vm", "vm::Interp", op);
        interp.emplace(m, cfg);
    }
    {
        auto span = log.open("vm", "vm::Interp::run", op);
        t.result = interp->run();
        interp.reset();
    }
    t.us = secondsSince(t0) * 1e6;
    return t;
}

bool
sameRun(const vm::RunResult &a, const vm::RunResult &b)
{
    return a.outcome == b.outcome && a.clock == b.clock &&
           a.stats.steps == b.stats.steps && a.output == b.output &&
           a.exitCode == b.exitCode && a.memDigest == b.memDigest;
}

vm::VmConfig
cleanConfig(const Program &p)
{
    vm::VmConfig cfg = p.spec ? p.spec->cleanConfig : vm::VmConfig{};
    cfg.seed = p.runSeed;
    return cfg;
}

vm::VmConfig
forcedConfig(const Program &p)
{
    vm::VmConfig cfg = p.spec->buggyConfig;
    cfg.seed = p.runSeed;
    return cfg;
}

/** The deterministic counts of one pass. */
struct PassCounts
{
    BuildCounts build;
    uint64_t plainSteps = 0, hardenedSteps = 0; ///< all clean runs
    uint64_t kernelPlainSteps = 0, kernelHardenedSteps = 0;
    uint64_t recoveries = 0, rollbacks = 0, sourceBytes = 0;
    std::vector<double> recoveryVus;

    double recoveryVusP50() const { return median(recoveryVus); }

    double
    overheadSteps() const
    {
        return kernelPlainSteps
                   ? double(kernelHardenedSteps) / double(kernelPlainSteps)
                   : 0;
    }

    bool operator==(const PassCounts &) const = default;
};

/** Runs one op; returns its kernel clean-run wall times (plain,
 *  hardened) in µs, zero for generated programs. */
std::pair<double, double>
hardenOp(const Program &p, SpanLog &log, uint64_t op, PassCounts &pc,
         Report &rep)
{
    auto opSpan = log.open("bench", "op.harden", op);
    const std::string &source = p.spec ? p.spec->source : p.source;
    std::string err;
    apps::PreparedApp plain =
        buildApp(p.name, source, false, log, op, err);
    apps::PreparedApp hard = buildApp(p.name, source, true, log, op, err);
    if (!plain.module || !hard.module) {
        rep.fail(p.name + ": does not compile: " + err);
        return {0, 0};
    }
    pc.build.add(*plain.module, hard);
    pc.sourceBytes += source.size();

    // Table 3 in wall time: one discarded warm-up run per kernel build,
    // then the measured pair in an order that alternates per run seed.
    const vm::VmConfig clean = cleanConfig(p);
    if (p.spec) {
        runVm(*plain.module, clean, log, op);
        runVm(*hard.module, clean, log, op);
    }
    const bool plainFirst = p.index % 2 == 0;
    TimedRun first =
        runVm(plainFirst ? *plain.module : *hard.module, clean, log, op);
    TimedRun second =
        runVm(plainFirst ? *hard.module : *plain.module, clean, log, op);
    const TimedRun &pr = plainFirst ? first : second;
    const TimedRun &hr = plainFirst ? second : first;
    pc.plainSteps += pr.result.stats.steps;
    pc.hardenedSteps += hr.result.stats.steps;

    if (!p.spec) {
        vm::VmConfig ref = clean;
        ref.engine = vm::ExecEngine::Reference;
        TimedRun rr = runVm(*plain.module, ref, log, op);
        if (!pr.result.ok())
            rep.fail(p.name + ": plain clean run ended " +
                     vm::outcomeName(pr.result.outcome));
        else if (hr.result.outcome != pr.result.outcome ||
                 hr.result.output != pr.result.output ||
                 hr.result.exitCode != pr.result.exitCode)
            rep.fail(p.name + ": hardened output differs from plain");
        else if (!sameRun(pr.result, rr.result))
            rep.fail(p.name + ": Reference run differs from Decoded");
        return {0, 0};
    }

    pc.kernelPlainSteps += pr.result.stats.steps;
    pc.kernelHardenedSteps += hr.result.stats.steps;
    TimedRun forced = runVm(*hard.module, forcedConfig(p), log, op);
    for (const vm::RecoveryEvent &ev : forced.result.stats.recoveries)
        pc.recoveryVus.push_back(ev.micros());
    pc.recoveries += forced.result.stats.recoveries.size();
    pc.rollbacks += forced.result.stats.rollbacks;
    if (!apps::runIsCorrect(*p.spec, pr.result))
        rep.fail(p.name + ": plain clean run is not correct");
    else if (!apps::runIsCorrect(*p.spec, hr.result))
        rep.fail(p.name + ": hardened clean run is not correct");
    else if (!apps::runIsCorrect(*p.spec, forced.result))
        rep.fail(p.name + ": failure-forced hardened run did not recover");
    return {pr.us, hr.us};
}

} // namespace

void
runHardenWorkload(const Settings &s, Report &rep)
{
    std::vector<Program> inputs;
    std::vector<double> setupTimes;
    for (int r = 0; r < 3; ++r) {
        Clock::time_point t0 = Clock::now();
        inputs = makeInputs(s.seed);
        setupTimes.push_back(secondsSince(t0));
    }
    rep.metric("setup_s", median(setupTimes), "s");

    std::atomic<uint64_t> ids{0};
    SpanLog log(ids);
    // Each input's op times over passes, and each kernel's clean-run
    // times (plain, hardened).
    std::vector<std::vector<double>> opMs(inputs.size());
    std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
        kernelUs;
    std::vector<PassCounts> passes;
    uint64_t op = 0;
    auto runPass = [&](unsigned pass) {
        log.enabled = s.trace && pass % 2 == 1;
        PassCounts pc;
        for (size_t i = 0; i < inputs.size(); ++i) {
            const Program &p = inputs[i];
            Clock::time_point o0 = Clock::now();
            auto [plainUs, hardUs] = hardenOp(p, log, ++op, pc, rep);
            opMs[i].push_back(secondsSince(o0) * 1e3);
            ++rep.attempted;
            if (p.spec) {
                kernelUs[p.name].first.push_back(plainUs);
                kernelUs[p.name].second.push_back(hardUs);
            }
        }
        if (!passes.empty() && !(pc == passes.front()))
            rep.fail("harden pass " + std::to_string(pass + 1) +
                     ": deterministic counts differ from pass 1");
        passes.push_back(std::move(pc));
    };
    const std::vector<double> times =
        runPasses(s.seconds, rep, runPass, [] {});

    const PassCounts &pc = passes.front();
    pc.build.addCounts(rep);
    rep.counts["vm.steps"] = double(pc.plainSteps + pc.hardenedSteps);
    rep.counts["vm.overhead_steps"] = pc.overheadSteps();
    rep.counts["vm.recoveries"] = double(pc.recoveries);
    rep.counts["vm.rollbacks"] = double(pc.rollbacks);
    rep.counts["harden.source_bytes"] = double(pc.sourceBytes);
    rep.counts["recovery_vus_p50"] = pc.recoveryVusP50();
    rep.info["pass"] = std::to_string(kKernelRuns) +
                       " run seeds x 10 kernels + " +
                       std::to_string(kGenerated) + " generated programs";

    if (!s.trace) {
        std::vector<double> ratios;
        for (const auto &[name, us] : kernelUs)
            ratios.push_back(median(us.second) / median(us.first));
        // Every pass repeats the same inputs, so an input's latency is
        // its median over passes and the percentiles run over inputs.
        std::vector<double> inputMs;
        for (const std::vector<double> &ms : opMs)
            inputMs.push_back(median(ms));
        const double tail = tailQuantile(inputMs.size());
        rep.metric("ops_per_s", double(rep.attempted) / sum(times),
                   "op/s");
        rep.metric("op_ms_p50", median(inputMs), "ms");
        rep.metric("op_ms_tail", quantile(inputMs, tail), "ms");
        rep.info["op_ms_tail"] =
            percentileLabel(tail) + " of " +
            std::to_string(inputMs.size()) +
            " inputs' median latency over " +
            std::to_string(times.size()) + " passes";
        rep.metric("hardened_overhead", geomean(ratios), "ratio");
        rep.info["hardened_overhead"] =
            "geomean over kernels of median hardened / median plain "
            "clean-run wall time; vm.overhead_steps " +
            std::to_string(pc.overheadSteps());
        rep.metric("recovery_vus_p50", pc.recoveryVusP50(), "vus");
        rep.info["recovery_vus_p50"] =
            "median of " + std::to_string(pc.recoveryVus.size()) +
            " recovery episodes";
        return;
    }

    if (!writeSpans(s.outDir + "/spans-harden.jsonl", log.spans))
        rep.fail("could not write the span file");
    pc.build.emit(log.spans, rep);
    rep.metric("vm.steps", double(pc.plainSteps + pc.hardenedSteps),
               "count");
    rep.metric("vm.overhead_steps", pc.overheadSteps(), "ratio");

    // The probe re-issues every fourth program's runs: clean runs of both
    // builds, and the failure-forced run of a kernel's hardened build.
    log.enabled = false;
    VmProbe probe;
    for (size_t i = 0; i < inputs.size(); i += 4) {
        const Program &p = inputs[i];
        std::string err;
        const std::string &source = p.spec ? p.spec->source : p.source;
        apps::PreparedApp plain = buildApp(p.name, source, false, log, 0, err);
        apps::PreparedApp hard = buildApp(p.name, source, true, log, 0, err);
        if (!plain.module || !hard.module)
            continue;
        probe.run(*plain.module, cleanConfig(p), false, rep);
        probe.run(*hard.module, cleanConfig(p), true, rep);
        if (p.spec)
            probe.run(*hard.module, forcedConfig(p), true, rep);
    }
    probe.emit(rep);
    emitSelfTimeSplit(log.spans, rep);
    emitTraceOverhead(times, rep);
}

} // namespace perfbench
