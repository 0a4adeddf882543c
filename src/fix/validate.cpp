#include "fix/validate.h"

#include "fix/fix.h"
#include "fix/report.h"
#include "obs/replay/replay_run.h"
#include "vm/interp.h"

namespace conair::fix {

ValidationResult
validatePatch(const ir::Module &patched, const explore::Target &baseline,
              const obs::replay::ReplayLog *minimizedLog,
              const ValidationOptions &opts)
{
    ValidationResult res;

    // Obligation 1: the minimized failing schedule, replayed tolerantly
    // (the patch changed the instruction stream, so recorded switch
    // steps land best-effort), must end correct on the patched build.
    if (minimizedLog) {
        res.replayChecked = true;
        vm::RunResult r = obs::replay::replayTolerant(
            patched, *minimizedLog, minimizedLog->switches,
            minimizedLog->engine);
        res.replayFailureGone = explore::correctRun(baseline, r);
        res.replayDetail = vm::outcomeName(r.outcome);
        if (!r.failureTag.empty())
            res.replayDetail += " (" + r.failureTag + ")";
        else if (r.outcome == vm::Outcome::Success &&
                 !res.replayFailureGone)
            res.replayDetail += " (wrong output)";
        if (!res.replayFailureGone)
            res.error = "minimized replay still fails on the patched "
                        "build: " +
                        res.replayDetail;
    }

    // Obligation 3 first: a livelocked patch would otherwise burn the
    // whole campaign budget before being caught.
    {
        vm::RunResult base = vm::runProgram(*baseline.plain,
                                            opts.cleanConfig);
        vm::RunResult fixed = vm::runProgram(patched, opts.cleanConfig);
        res.overheadChecked = true;
        if (base.outcome != vm::Outcome::Success) {
            res.error = "baseline clean run did not succeed";
            return res;
        }
        if (!explore::correctRun(baseline, fixed)) {
            res.overheadOk = false;
            if (res.error.empty())
                res.error = "patched clean run did not succeed: " +
                            std::string(vm::outcomeName(fixed.outcome));
            return res;
        }
        res.overhead = base.stats.steps == 0
                           ? 0.0
                           : double(fixed.stats.steps) /
                                 double(base.stats.steps);
        res.overheadOk = res.overhead <= opts.maxOverhead;
        if (!res.overheadOk && res.error.empty())
            res.error = "patched clean-run overhead exceeds bound";
    }

    // Obligation 2: full campaign matrix on the patched build, all
    // differential oracles armed, nothing allowed to fail.
    explore::Target t = baseline;
    t.plain = &patched;
    t.hardened = nullptr;
    t.mustRecover = false;
    t.horizon = explore::calibrateHorizon(patched,
                                          opts.campaign.maxSteps);

    explore::CampaignOptions copts = opts.campaign;
    copts.differential = true;
    copts.stopAfterFailures = 0;
    copts.collectMetrics = false;

    explore::CampaignReport rep = explore::runCampaign({t}, copts);
    const explore::TargetReport &tr = rep.targets[0];
    res.campaignRan = true;
    res.schedules = tr.schedules;
    res.failing = tr.failingSchedules;
    res.deadlocks = tr.deadlockSchedules;
    res.divergences = tr.divergences;
    res.inconclusive = tr.inconclusive;
    if (res.error.empty()) {
        if (res.failing > 0)
            res.error = "patched build still fails under exploration";
        else if (res.deadlocks > 0)
            res.error = "patched build deadlocks under exploration";
        else if (res.divergences > 0)
            res.error = "patched build diverges across engines";
    }
    return res;
}

std::string
fixStage(const std::vector<explore::Target> &targets,
         const std::vector<vm::VmConfig> &cleanConfigs,
         const ValidationOptions &opts, explore::CampaignReport &rep)
{
    std::string text;
    for (size_t ti = 0; ti < targets.size(); ++ti) {
        explore::TargetReport &tr = rep.targets[ti];
        if (!tr.foundFailure || !tr.hasDiagnosis)
            continue;
        explore::FixSummary &fs = tr.fix;
        fs.attempted = true;
        FixPlan plan = synthesizeFix(*targets[ti].plain, tr.diagnosis);
        fs.synthesized = plan.ok;
        fs.strategy = strategyName(plan.strategy);
        fs.verdict = obs::pm::verdictName(plan.verdict);
        fs.variable = plan.variable;
        fs.mutexName = plan.mutexName;
        fs.usedExistingMutex = plan.usedExistingMutex;
        fs.edits = plan.edits.size();
        fs.error = plan.error;
        if (!plan.ok) {
            text += renderPatchText(plan);
            continue;
        }
        obs::replay::ReplayLog log;
        std::string lerr;
        bool haveLog =
            tr.hasReplayLog &&
            obs::replay::loadReplayLog(tr.replayLogPath, log, lerr);
        ValidationOptions vopts = opts;
        vopts.cleanConfig = cleanConfigs[ti];
        ValidationResult val = validatePatch(
            *plan.patched, targets[ti], haveLog ? &log : nullptr, vopts);
        fs.replayChecked = val.replayChecked;
        fs.replayFailureGone = val.replayFailureGone;
        fs.campaignRan = val.campaignRan;
        fs.patchedSchedules = val.schedules;
        fs.patchedFailing = val.failing;
        fs.patchedDeadlocks = val.deadlocks;
        fs.patchedDivergences = val.divergences;
        fs.patchedInconclusive = val.inconclusive;
        fs.overhead = val.overhead;
        fs.overheadOk = val.overheadOk;
        fs.validated = val.ok();
        if (!val.ok() && fs.error.empty())
            fs.error = val.error;
        text += renderPatchText(plan, &val);
    }
    return text;
}

} // namespace conair::fix
