/**
 * @file
 * The repair workload: bench_explore's `--fix APP` flow on each of the
 * ten kernels.  Op = one kernel, from failing run to verdict: record
 * the scripted failing run (Grow recorder, diagnosis mode), record the
 * hardened build under the same schedule, diagnose, build the replay
 * log and shrink it with minimizeReplayLog, synthesizeFix, then
 * validatePatch with the --fix defaults (minimised replay, clean-run
 * overhead, 4 policies x 40 seeds on the patched build with Decoded,
 * Reference and Fused legs).
 */
#include <memory>

#include "fix/fix.h"
#include "fix/validate.h"
#include "obs/postmortem/diagnosis.h"
#include "obs/replay/minimize.h"
#include "obs/trace.h"
#include "perfbench/bench.h"

namespace perfbench {

using namespace conair;

namespace {

/** bench_explore --fix's default validation seeds per policy. */
constexpr unsigned kValidateSeeds = 40;

/** What one op measured and counted. */
struct OpResult
{
    double recordPlainUs = 0;    ///< the scripted failing run
    double recordHardenedUs = 0; ///< the hardened run, same schedule
    vm::VmConfig failingConfig;  ///< recorders detached
    uint64_t steps = 0;
    uint64_t traceEvents = 0;
    uint64_t minimiseProbes = 0;
    uint64_t edits = 0;
    uint64_t validateSchedules = 0;
    std::vector<double> recoveryVus;
    uint64_t rollbacks = 0;
};

/** The deterministic counts of one pass over the ten kernels. */
struct PassCounts
{
    uint64_t steps = 0, traceEvents = 0, minimiseProbes = 0, edits = 0;
    uint64_t validateSchedules = 0, recoveries = 0, rollbacks = 0;
    double recoveryVusP50 = 0;

    bool operator==(const PassCounts &) const = default;
};

double
elapsedUs(Clock::time_point t0)
{
    return secondsSince(t0) * 1e6;
}

OpResult
repairOp(const Kernel &k, unsigned workers, SpanLog &log, uint64_t op,
         Report &rep)
{
    const apps::AppSpec &spec = *k.app.spec;
    const ir::Module &plain = *k.target.plain;
    const ir::Module &hardened = *k.target.hardened;
    OpResult res;
    auto opSpan = log.open("bench", "op.repair", op);

    // Record the scripted failing run, probing seeds 1..8 like --fix.
    std::unique_ptr<obs::FlightRecorder> rec;
    vm::VmConfig cfg;
    vm::RunResult failing;
    bool gotFailure = false;
    for (uint64_t seed = 1; seed <= 8 && !gotFailure; ++seed) {
        rec = std::make_unique<obs::FlightRecorder>(
            4096, obs::RecorderMode::Grow);
        cfg = spec.buggyConfig;
        cfg.seed = seed;
        cfg.recorder = rec.get();
        cfg.recordSharedAccesses = true;
        Clock::time_point t0 = Clock::now();
        {
            auto span = log.open("obs", "record.unhardened", op);
            failing = vm::runProgram(plain, cfg);
        }
        res.recordPlainUs = elapsedUs(t0);
        cfg.recorder = nullptr;
        cfg.recordSharedAccesses = false;
        gotFailure = !apps::runIsCorrect(spec, failing);
    }
    res.failingConfig = cfg;
    if (!gotFailure) {
        rep.fail(spec.name + ": the scripted failure never fired");
        return res;
    }
    res.steps = failing.stats.steps;

    // The hardened build under the same schedule: recovery retries until
    // the racing write lands, so the partner is in its trace.
    obs::FlightRecorder hardRec(4096, obs::RecorderMode::Grow);
    vm::VmConfig hcfg = cfg;
    hcfg.recorder = &hardRec;
    hcfg.recordSharedAccesses = true;
    vm::RunResult recovered;
    Clock::time_point t0 = Clock::now();
    {
        auto span = log.open("obs", "record.hardened", op);
        recovered = vm::runProgram(hardened, hcfg);
    }
    res.recordHardenedUs = elapsedUs(t0);
    for (const vm::RecoveryEvent &ev : recovered.stats.recoveries)
        res.recoveryVus.push_back(ev.micros());
    res.rollbacks = recovered.stats.rollbacks;
    res.traceEvents = rec->totalRecordedAll() + hardRec.totalRecordedAll();

    const bool useHard =
        hardRec.totalOf(obs::EventKind::RecoveryDone) > 0 ||
        hardRec.totalOf(obs::EventKind::FailureSite) > 0;
    obs::pm::RecoveryReport diagnosis;
    {
        auto span = log.open("obs", "obs::pm::diagnose", op);
        diagnosis = obs::pm::diagnose(useHard ? hardRec : *rec,
                                      useHard ? hardened : plain,
                                      spec.name, "");
    }
    const obs::pm::EpisodeReport *primary = diagnosis.primary();
    if (!primary ||
        !obs::pm::verdictMatchesRootCause(
            primary->verdict, apps::rootCauseName(spec.rootCause))) {
        rep.fail(spec.name + ": diagnosis verdict " +
                 (primary ? obs::pm::verdictName(primary->verdict)
                          : "none") +
                 " does not match root cause " +
                 apps::rootCauseName(spec.rootCause));
        return res;
    }

    obs::replay::ReplayLog replayLog;
    const obs::replay::ReplayLog *logp = nullptr;
    std::string err;
    bool built = false;
    {
        auto span = log.open("obs", "obs::replay::buildReplayLog", op);
        built = obs::replay::buildReplayLog(spec.name, "", cfg, *rec,
                                            failing, replayLog, err);
    }
    if (built) {
        obs::replay::MinimizeResult m;
        {
            auto span =
                log.open("obs", "obs::replay::minimizeReplayLog", op);
            m = obs::replay::minimizeReplayLog(plain, replayLog, {});
        }
        res.minimiseProbes = m.probes;
        if (m.ok)
            replayLog = std::move(m.minimized);
        logp = &replayLog;
    }

    fix::FixPlan plan;
    {
        auto span = log.open("fix", "fix::synthesizeFix", op);
        plan = fix::synthesizeFix(plain, diagnosis);
    }
    if (!plan.ok) {
        rep.fail(spec.name + ": no fix synthesized: " + plan.error);
        return res;
    }
    res.edits = plan.edits.size();

    fix::ValidationOptions vopts;
    vopts.campaign.seedsPerPolicy = kValidateSeeds;
    vopts.campaign.workers = workers;
    vopts.cleanConfig = spec.cleanConfig;
    fix::ValidationResult val;
    {
        auto span = log.open("fix", "fix::validatePatch", op);
        val = fix::validatePatch(*plan.patched, k.target, logp, vopts);
    }
    res.validateSchedules = val.schedules;
    if (!val.ok())
        rep.fail(spec.name + ": patch did not validate: " + val.error);
    return res;
}

} // namespace

void
runRepairWorkload(const Settings &s, Report &rep)
{
    std::atomic<uint64_t> ids{0};
    SpanLog log(ids), quiet(ids);
    log.enabled = s.trace;
    std::vector<double> setupTimes;
    std::vector<Kernel> kernels = setUpKernels(log, setupTimes);
    const BuildCounts builds = BuildCounts::of(kernels);
    builds.addCounts(rep);

    std::vector<double> opMs;
    std::vector<std::vector<double>> plainUs(kernels.size()),
        hardUs(kernels.size());
    std::vector<PassCounts> passes;
    std::vector<OpResult> firstPass;
    uint64_t op = 0;
    auto runPass = [&](unsigned pass) {
        log.enabled = s.trace && pass % 2 == 1;
        PassCounts pc;
        std::vector<double> vus;
        for (size_t i = 0; i < kernels.size(); ++i) {
            Clock::time_point t0 = Clock::now();
            OpResult r = repairOp(kernels[i], s.workers, log, ++op, rep);
            opMs.push_back(secondsSince(t0) * 1e3);
            ++rep.attempted;
            plainUs[i].push_back(r.recordPlainUs);
            hardUs[i].push_back(r.recordHardenedUs);
            pc.steps += r.steps;
            pc.traceEvents += r.traceEvents;
            pc.minimiseProbes += r.minimiseProbes;
            pc.edits += r.edits;
            pc.validateSchedules += r.validateSchedules;
            pc.recoveries += r.recoveryVus.size();
            pc.rollbacks += r.rollbacks;
            vus.insert(vus.end(), r.recoveryVus.begin(),
                       r.recoveryVus.end());
            if (pass == 0)
                firstPass.push_back(std::move(r));
        }
        pc.recoveryVusP50 = median(vus);
        if (!passes.empty() && !(pc == passes.front()))
            rep.fail("repair pass " + std::to_string(pass + 1) +
                     ": deterministic counts differ from pass 1");
        passes.push_back(pc);
    };
    // Set-up repeats twice after every pass, so that setup_s is a median
    // over the whole run rather than over one moment of it.
    auto setUpAgain = [&] {
        for (int r = 0; r < 2; ++r)
            setUpKernels(quiet, setupTimes);
    };
    const std::vector<double> times =
        runPasses(s.seconds, rep, runPass, setUpAgain);
    rep.metric("setup_s", median(setupTimes), "s");

    const PassCounts &pc = passes.front();
    rep.counts["vm.steps"] = double(pc.steps);
    rep.counts["obs.trace_events"] = double(pc.traceEvents);
    rep.counts["obs.minimise_probes"] = double(pc.minimiseProbes);
    rep.counts["fix.edits"] = double(pc.edits);
    rep.counts["fix.validate_schedules"] = double(pc.validateSchedules);
    rep.counts["vm.recoveries"] = double(pc.recoveries);
    rep.counts["vm.rollbacks"] = double(pc.rollbacks);
    rep.counts["recovery_vus_p50"] = pc.recoveryVusP50;

    if (!s.trace) {
        std::vector<double> ratios;
        for (size_t i = 0; i < kernels.size(); ++i)
            ratios.push_back(median(hardUs[i]) / median(plainUs[i]));
        const double tail = tailQuantile(opMs.size());
        rep.metric("ops_per_s", double(rep.attempted) / sum(times),
                   "op/s");
        rep.metric("op_ms_p50", median(opMs), "ms");
        rep.metric("op_ms_tail", quantile(opMs, tail), "ms");
        rep.info["op_ms_tail"] = percentileLabel(tail) + " of " +
                                 std::to_string(opMs.size()) + " ops";
        rep.metric("hardened_overhead", geomean(ratios), "ratio");
        rep.info["hardened_overhead"] =
            "geomean over kernels of median hardened / median plain wall "
            "time of the recorded failing schedule";
        rep.metric("recovery_vus_p50", pc.recoveryVusP50, "vus");
        return;
    }

    std::vector<Span> &spans = log.spans;
    if (!writeSpans(s.outDir + "/spans-repair.jsonl", spans))
        rep.fail("could not write the span file");
    builds.emit(spans, rep);
    rep.metric("vm.steps", double(pc.steps), "count");
    std::vector<double> recordMs = spanMs(spans, "record.unhardened");
    for (double ms : spanMs(spans, "record.hardened"))
        recordMs.push_back(ms);
    rep.metric("obs.record_ms", median(recordMs), "ms");
    rep.metric("obs.diagnose_ms", median(spanMs(spans, "obs::pm::diagnose")),
               "ms");
    rep.metric("obs.minimise_ms",
               median(spanMs(spans, "obs::replay::minimizeReplayLog")),
               "ms");
    rep.metric("obs.minimise_probes", double(pc.minimiseProbes), "count");
    rep.metric("obs.trace_events", double(pc.traceEvents), "count");
    rep.metric("fix.synthesize_ms",
               median(spanMs(spans, "fix::synthesizeFix")), "ms");
    rep.metric("fix.edits", double(pc.edits), "count");
    rep.metric("fix.validate_ms",
               median(spanMs(spans, "fix::validatePatch")), "ms");
    rep.metric("fix.validate_schedules", double(pc.validateSchedules),
               "count");

    // The probe re-issues each kernel's failing schedule bare, on both
    // builds (the recorded runs above carry the diagnosis recorders).
    VmProbe probe;
    for (size_t i = 0; i < kernels.size() && i < firstPass.size(); ++i) {
        probe.run(*kernels[i].target.plain, firstPass[i].failingConfig,
                  false, rep);
        probe.run(*kernels[i].target.hardened, firstPass[i].failingConfig,
                  true, rep);
    }
    probe.emit(rep);
    rep.metric("vm.overhead_steps", probe.overheadSteps(), "ratio");
    emitSelfTimeSplit(spans, rep);
    emitTraceOverhead(times, rep);
}

} // namespace perfbench
