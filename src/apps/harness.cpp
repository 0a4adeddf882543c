#include "apps/harness.h"

#include <algorithm>
#include <sstream>

#include "frontend/compile.h"
#include "support/diag.h"
#include "support/str.h"

namespace conair::apps {

namespace {

/** Removes lines containing oracle() annotations from MiniC source. */
std::string
stripOracleLines(const std::string &src)
{
    std::string out;
    std::istringstream in(src);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("oracle(") == std::string::npos) {
            out += line;
            out += '\n';
        }
    }
    return out;
}

} // namespace

PreparedApp
prepareApp(const AppSpec &app, const HardenOptions &opts)
{
    PreparedApp p;
    p.spec = &app;
    std::string src =
        opts.stripOracles ? stripOracleLines(app.source) : app.source;
    DiagEngine diags;
    fe::CompileOptions copts;
    copts.moduleName = app.name;
    p.module = fe::compileMiniC(src, diags, copts);
    if (!p.module)
        fatal("bundled app '" + app.name + "' failed to compile:\n" +
              diags.str());
    if (opts.applyConAir) {
        p.report = ca::applyConAir(*p.module, opts.conair);
        p.hardened = true;
    }
    return p;
}

vm::RunResult
runClean(const PreparedApp &p, uint64_t seed)
{
    vm::VmConfig cfg = p.spec->cleanConfig;
    cfg.seed = seed;
    return vm::runProgram(*p.module, cfg);
}

vm::RunResult
runBuggy(const PreparedApp &p, uint64_t seed)
{
    vm::VmConfig cfg = p.spec->buggyConfig;
    cfg.seed = seed;
    return vm::runProgram(*p.module, cfg);
}

bool
runIsCorrect(const AppSpec &app, const vm::RunResult &r)
{
    return r.outcome == vm::Outcome::Success &&
           r.exitCode == app.expectedExit &&
           r.output == app.expectedOutput;
}

RecoveryTrial
runRecoveryTrial(const PreparedApp &p, unsigned n)
{
    RecoveryTrial trial;
    double micros_sum = 0;
    unsigned micros_count = 0;
    for (unsigned seed = 1; seed <= n; ++seed) {
        vm::RunResult r = runBuggy(p, seed);
        ++trial.runs;
        if (runIsCorrect(*p.spec, r)) {
            ++trial.correct;
        } else if (r.outcome == vm::Outcome::Success) {
            ++trial.wrongOutput;
        } else if (r.outcome == p.spec->expectedFailure) {
            ++trial.failures;
        } else {
            ++trial.otherBad;
        }
        trial.totalRollbacks += r.stats.rollbacks;
        for (const vm::RecoveryEvent &ev : r.stats.recoveries) {
            micros_sum += ev.micros();
            ++micros_count;
            trial.recoveryMicrosMax =
                std::max(trial.recoveryMicrosMax, ev.micros());
            trial.totalRetriesMax =
                std::max(trial.totalRetriesMax, ev.retries);
        }
    }
    if (micros_count)
        trial.recoveryMicrosAvg = micros_sum / micros_count;
    return trial;
}

CampaignApp
prepareCampaignApp(const AppSpec &app)
{
    CampaignApp c;
    c.spec = &app;
    HardenOptions plain;
    plain.applyConAir = false;
    c.plain = prepareApp(app, plain);
    c.hardened = prepareApp(app, HardenOptions{});
    return c;
}

explore::Target
campaignTarget(const CampaignApp &app)
{
    explore::Target t;
    t.name = app.spec->name;
    t.plain = app.plain.module.get();
    t.hardened = app.hardened.module.get();
    t.expectedOutput = app.spec->expectedOutput;
    t.expectedExit = app.spec->expectedExit;
    t.checkOutput = true;
    t.mustRecover = true;
    // Sample change points across the program's natural length, and
    // keep the Random policy's jitter close to the forcing quantum the
    // kernel was tuned with.
    t.horizon = explore::calibrateHorizon(*app.plain.module, 50'000'000);
    t.quantum = std::max<uint64_t>(app.spec->buggyConfig.quantum, 1);
    return t;
}

vm::RunResult
runUnderSchedule(const PreparedApp &p, vm::VmConfig cfg)
{
    cfg.delays.clear();
    return vm::runProgram(*p.module, cfg);
}

bool
probeScriptedFailure(const CampaignApp &app,
                     obs::replay::RecordedRun &out)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        vm::VmConfig cfg = app.spec->buggyConfig;
        cfg.seed = seed;
        out = obs::replay::recordRun(*app.plain.module, cfg);
        if (!runIsCorrect(*app.spec, out.result))
            return true;
    }
    return false;
}

std::vector<std::string>
observedFailureTags(const AppSpec &app)
{
    HardenOptions plain;
    plain.applyConAir = false;
    PreparedApp p = prepareApp(app, plain);
    return split(runBuggy(p, 1).failureTag, ';', /*dropEmpty=*/true);
}

double
measureOverhead(const AppSpec &app, const HardenOptions &opts,
                unsigned runs)
{
    HardenOptions original = opts;
    original.applyConAir = false;
    PreparedApp base = prepareApp(app, original);
    PreparedApp hard = prepareApp(app, opts);

    uint64_t base_steps = 0, hard_steps = 0;
    for (unsigned seed = 1; seed <= runs; ++seed) {
        vm::RunResult rb = runClean(base, seed);
        vm::RunResult rh = runClean(hard, seed);
        if (rb.outcome != vm::Outcome::Success)
            fatal(strfmt("%s: clean baseline run failed (%s) seed %u",
                         app.name.c_str(),
                         vm::outcomeName(rb.outcome), seed));
        if (rh.outcome != vm::Outcome::Success)
            fatal(strfmt("%s: clean hardened run failed (%s) seed %u",
                         app.name.c_str(),
                         vm::outcomeName(rh.outcome), seed));
        base_steps += rb.stats.steps;
        hard_steps += rh.stats.steps;
    }
    if (base_steps == 0)
        return 0.0;
    return double(hard_steps) / double(base_steps) - 1.0;
}

} // namespace conair::apps
