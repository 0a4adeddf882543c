#include "explore/stages.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "explore/telemetry.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "support/str.h"
#include "vm/interp.h"

namespace conair::explore {

namespace {

/** Creates @p dir and its parents; false with a one-line @p err (an
 *  artifact directory under a regular file must not abort the host). */
bool
makeDirectory(const std::string &dir, std::string &err)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!ec)
        return true;
    err = "cannot create directory '" + dir + "': " + ec.message();
    return false;
}

/** The diagnosed-leg rule of diagnoseSchedule(). */
LegDiagnosis
diagnoseLegs(const Target &t, const obs::FlightRecorder &plainRec,
             const obs::FlightRecorder &hardRec, const std::string &token)
{
    LegDiagnosis d;
    d.hardened = t.hardened &&
                 (hardRec.totalOf(obs::EventKind::RecoveryDone) > 0 ||
                  hardRec.totalOf(obs::EventKind::FailureSite) > 0);
    d.report = obs::pm::diagnose(d.hardened ? hardRec : plainRec,
                                 d.hardened ? *t.hardened : *t.plain,
                                 t.name, token);
    return d;
}

} // namespace

LegDiagnosis
diagnoseSchedule(const Target &t, const ScheduleSpec &s,
                 const CampaignOptions &opts,
                 obs::FlightRecorder &plainRec,
                 obs::FlightRecorder &hardRec)
{
    ScheduleInstruments ins{&plainRec, &hardRec};
    ins.recordSharedAccesses = true;
    runOneSchedule(t, s, opts, &ins);
    return diagnoseLegs(t, plainRec, hardRec, s.token());
}

LegDiagnosis
diagnoseRecordedRun(const Target &t, const obs::replay::RecordedRun &run,
                    const std::string &token)
{
    obs::FlightRecorder hardRec(4096, obs::RecorderMode::Grow);
    if (t.hardened) {
        vm::VmConfig cfg = run.config;
        cfg.recorder = &hardRec;
        cfg.recordSharedAccesses = true;
        vm::runProgram(*t.hardened, cfg);
    }
    return diagnoseLegs(t, *run.recorder, hardRec, token);
}

void
diagnoseStage(const std::vector<Target> &targets,
              const CampaignOptions &opts, CampaignReport &rep)
{
    for (size_t ti = 0; ti < targets.size(); ++ti) {
        TargetReport &tr = rep.targets[ti];
        if (!tr.foundFailure)
            continue;
        obs::FlightRecorder plainRec(kDiagnosisRingCapacity);
        obs::FlightRecorder hardRec(kDiagnosisRingCapacity);
        LegDiagnosis d = diagnoseSchedule(targets[ti], tr.firstFailure,
                                          opts, plainRec, hardRec);
        tr.diagnosis = std::move(d.report);
        tr.hasDiagnosis = true;
        tr.diagnosisLeg = d.leg();
    }
}

std::string
abortFlushStage(const std::vector<Target> &targets,
                const CampaignOptions &opts, const std::string &dir,
                CampaignReport &rep)
{
    std::string firstErr;
    for (size_t ti = 0; ti < targets.size(); ++ti) {
        TargetReport &tr = rep.targets[ti];
        const Target &t = targets[ti];
        if (!tr.hasDivergence && !tr.hasUnrecovered)
            continue;
        const ScheduleSpec &spec =
            tr.hasDivergence ? tr.firstDivergence : tr.firstUnrecovered;
        obs::FlightRecorder plainRec(kDiagnosisRingCapacity);
        obs::FlightRecorder hardRec(kDiagnosisRingCapacity);
        LegDiagnosis d =
            diagnoseSchedule(t, spec, opts, plainRec, hardRec);

        std::string token = spec.token();
        std::replace(token.begin(), token.end(), ':', '-');
        std::string stem = dir + "/" + t.name + "_" + token;
        std::vector<obs::TraceProcess> procs;
        procs.push_back({&plainRec, t.name + " unhardened", 1});
        if (t.hardened)
            procs.push_back({&hardRec, t.name + " hardened", 2});
        const std::pair<std::string, std::string> files[] = {
            {stem + "_trace.json", obs::chromeTraceJson(procs)},
            {stem + "_diagnosis.json", obs::pm::toJson(d.report)},
            {stem + "_diagnosis.txt", obs::pm::renderText(d.report)},
        };

        std::string err;
        if (makeDirectory(dir, err))
            for (const auto &[path, body] : files)
                if (writeFile(path, body, err))
                    tr.abortArtifacts.push_back(path);
        if (firstErr.empty())
            firstErr = err;
    }
    return firstErr;
}

void
replayCorpusStage(const std::vector<Target> &targets,
                  const CampaignOptions &opts, const std::string &dir,
                  CampaignReport &rep)
{
    uint64_t corpus = 0;
    for (size_t ti = 0; ti < targets.size(); ++ti) {
        TargetReport &tr = rep.targets[ti];
        const Target &t = targets[ti];
        if (!tr.foundFailure)
            continue;

        obs::replay::RecordedRun run = obs::replay::recordRun(
            *t.plain, makeBaseConfig(t, tr.firstFailure, opts));
        obs::replay::MinimizeOptions mo;
        mo.preserveVerdict = true;
        obs::replay::MinimizedLog logs;
        if (!obs::replay::minimizeRecordedRun(
                *t.plain, run, t.name, tr.firstFailure.token(), &mo, logs,
                tr.replayError))
            continue;
        const obs::replay::ReplayLog &final_ = logs.best();
        tr.replayOriginalSwitches = logs.recorded.switches.size();
        tr.replayMinimizedSwitches = final_.switches.size();

        // Cross-engine leg of the faithfulness contract: the log must
        // replay under the Reference engine too.
        tr.replayCrossEngineVerified =
            obs::replay::replayLog(*t.plain, final_,
                                   vm::ExecEngine::Reference)
                .faithful;

        std::string path = dir + "/" + t.name + ".replay";
        if (!makeDirectory(dir, tr.replayError) ||
            !obs::replay::saveReplayLog(path, final_, tr.replayError))
            continue;
        tr.replayLogPath = path;
        tr.hasReplayLog = true;
        ++corpus;
        if (!logs.ddmin.ok)
            tr.replayError = logs.ddmin.err;
    }
    if (opts.telemetry)
        opts.telemetry->noteCorpusSize(corpus);
}

void
guidedStage(const std::vector<Target> &targets,
            const CampaignOptions &opts, const GuidedOptions &g,
            const std::string &corpusDir, CampaignReport &rep)
{
    GuidedOptions go = g;
    for (const auto &[policy, depth] : opts.policies)
        if (policy == vm::SchedPolicy::Pct ||
            policy == vm::SchedPolicy::PreemptBound) {
            go.basePolicy = policy;
            go.baseDepth = depth;
            break;
        }
    // The budget is an upper bound: a search may stop at its first
    // failure, so the live done counter may finish below the total.
    if (opts.telemetry)
        opts.telemetry->addPlanned(targets.size() * go.budget);

    for (size_t ti = 0; ti < targets.size(); ++ti) {
        TargetReport &tr = rep.targets[ti];
        const Target &t = targets[ti];
        GuidedResult gr = runGuided(t, opts, go);

        tr.hasGuided = true;
        GuidedSummary &gs = tr.guided;
        static_cast<GuidedCounts &>(gs) = gr;
        gs.budget = go.budget;
        gs.corpusEntries = gr.corpus.entries.size();
        gs.corpusDigest = gr.corpus.digest();
        gs.blindSeedsToFirstFailure =
            tr.foundFailure ? tr.firstFailureScheduleOrdinal : 0;
        // The guided schedules answer to the same oracles as the
        // blind matrix — their verdicts gate the campaign too.
        rep.divergences += gr.divergences;
        rep.unrecovered += gr.unrecovered;

        if (corpusDir.empty())
            continue;
        std::string path = corpusDir + "/" + t.name + ".corpus";
        if (makeDirectory(corpusDir, gs.error) &&
            saveCorpus(path, gr.corpus, gs.error))
            gs.corpusPath = path;
    }
}

} // namespace conair::explore
