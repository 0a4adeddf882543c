/**
 * @file
 * Shared front half for the fix-synthesis tests: record one failing
 * run of a kernel's scripted buggy schedule, diagnose it postmortem,
 * and (optionally) build + ddmin-minimise the failing run's replay
 * log — everything synthesizeFix()/validatePatch() consume.  Each
 * step is the library piece `conair fix` uses
 * (apps::probeScriptedFailure, explore::diagnoseRecordedRun,
 * obs::replay::minimizeRecordedRun).
 */
#pragma once

#include <string>

#include "apps/harness.h"
#include "explore/stages.h"

namespace conair::fixtest {

/** Everything the scripted-failure front half produced. */
struct ScriptedFailure
{
    apps::CampaignApp app;      ///< owns both module builds
    explore::Target target;     ///< borrows app's modules
    obs::pm::RecoveryReport report;
    obs::replay::ReplayLog log; ///< minimised when hasLog
    bool hasLog = false;
};

/**
 * Fills @p out for kernel @p name.  Probes the scripted buggy
 * schedule over seeds 1..8 for a failing unhardened run; returns
 * false with a one-line @p err when the kernel is unknown, no seed
 * fails, or the diagnosis is empty.
 */
inline bool
recordScriptedFailure(const std::string &name, bool wantLog,
                      ScriptedFailure &out, std::string &err)
{
    const apps::AppSpec *spec = apps::findApp(name);
    if (!spec) {
        err = "unknown app '" + name + "'";
        return false;
    }
    out.app = apps::prepareCampaignApp(*spec);
    out.target = apps::campaignTarget(out.app);

    obs::replay::RecordedRun fail;
    if (!apps::probeScriptedFailure(out.app, fail)) {
        err = name + ": scripted buggy schedule never failed "
                     "(seeds 1..8)";
        return false;
    }
    out.report = explore::diagnoseRecordedRun(out.target, fail, "").report;
    if (out.report.episodes.empty()) {
        err = name + ": diagnosis produced no episodes";
        return false;
    }

    if (wantLog) {
        obs::replay::MinimizeOptions mo;
        obs::replay::MinimizedLog logs;
        std::string lerr;
        if (!obs::replay::minimizeRecordedRun(*out.target.plain, fail,
                                              name, "", &mo, logs,
                                              lerr)) {
            err = name + ": replay log build failed: " + lerr;
            return false;
        }
        out.log = logs.best();
        out.hasLog = true;
    }
    return true;
}

} // namespace conair::fixtest
