#include "obs/replay/minimize.h"

#include <algorithm>

#include "obs/postmortem/diagnosis.h"
#include "vm/interp.h"

namespace conair::obs::replay {

namespace {

using SwitchList = std::vector<vm::ReplaySchedule::Switch>;

/** Headline diagnosis verdict of a diagnosis-mode trace ("" if the
 *  postmortem pass resolved nothing). */
std::string
verdictOf(const FlightRecorder &rec, const ir::Module &m,
          const ReplayLog &log)
{
    pm::RecoveryReport rep =
        pm::diagnose(rec, m, log.program, log.scheduleToken);
    const pm::EpisodeReport *p = rep.primary();
    return p ? pm::verdictName(p->verdict) : std::string();
}

} // namespace

MinimizeResult
minimizeReplayLog(const ir::Module &m, const ReplayLog &log,
                  const MinimizeOptions &opts)
{
    MinimizeResult res;
    res.originalSwitches = log.switches.size();

    const bool diagMode = opts.preserveVerdict || log.accessCount > 0;

    // The ddmin predicate: does this switch subset still reproduce the
    // recorded failure (and, optionally, the same diagnosis verdict)?
    bool needVerdict = false; // set after the baseline probe
    auto probe = [&](const SwitchList &cand,
                     std::string *verdictOut) -> bool {
        ++res.probes;
        FlightRecorder rec(4096, RecorderMode::Grow);
        ReplayInstruments ins;
        if (needVerdict || verdictOut) {
            ins.recorder = &rec;
            ins.recordSharedAccesses = true;
        }
        vm::RunResult r = replayTolerant(m, log, cand, opts.engine,
                                         ins.recorder ? &ins : nullptr);
        if (vm::outcomeName(r.outcome) != log.outcome ||
            r.failureTag != log.failureTag)
            return false;
        if (verdictOut)
            *verdictOut = verdictOf(rec, m, log);
        if (needVerdict)
            return verdictOf(rec, m, log) == res.verdict;
        return true;
    };
    auto budgetLeft = [&] {
        return opts.maxProbes == 0 || res.probes < opts.maxProbes;
    };

    // Baseline: the full switch list must reproduce under tolerant
    // replay, or shrinking would converge towards noise.
    {
        std::string v;
        if (!probe(log.switches,
                   opts.preserveVerdict ? &v : nullptr)) {
            res.err = "baseline tolerant replay does not reproduce "
                      "the recorded failure (" +
                      log.outcome +
                      (log.failureTag.empty() ? ""
                                              : " / " + log.failureTag) +
                      ")";
            return res;
        }
        if (opts.preserveVerdict) {
            res.verdict = v;
            needVerdict = !v.empty();
        }
    }

    // ddmin by complement reduction (Zeller & Hildebrandt).
    SwitchList cur = log.switches;
    if (!cur.empty() && budgetLeft() && probe({}, nullptr)) {
        cur.clear();
    } else {
        size_t n = 2;
        while (cur.size() >= 2 && budgetLeft()) {
            const size_t chunk = (cur.size() + n - 1) / n;
            bool reduced = false;
            for (size_t i = 0; i * chunk < cur.size() && budgetLeft();
                 ++i) {
                const size_t lo = i * chunk;
                const size_t hi = std::min(lo + chunk, cur.size());
                SwitchList complement;
                complement.reserve(cur.size() - (hi - lo));
                complement.insert(complement.end(), cur.begin(),
                                  cur.begin() + long(lo));
                complement.insert(complement.end(),
                                  cur.begin() + long(hi), cur.end());
                if (probe(complement, nullptr)) {
                    cur = std::move(complement);
                    n = std::max<size_t>(n - 1, 2);
                    reduced = true;
                    break;
                }
            }
            if (!reduced) {
                if (n >= cur.size())
                    break;
                n = std::min(cur.size(), n * 2);
            }
        }
    }

    // Re-record the minimised schedule into a fresh exact log: a
    // tolerant replay is itself deterministic, so observing it with a
    // Grow recorder yields a replay-grade switch list + fingerprint.
    FlightRecorder rec(4096, RecorderMode::Grow);
    ReplayInstruments ins;
    ins.recorder = &rec;
    ins.recordSharedAccesses = diagMode;
    vm::RunResult run = replayTolerant(m, log, cur, opts.engine, &ins);
    if (vm::outcomeName(run.outcome) != log.outcome ||
        run.failureTag != log.failureTag) {
        res.err = "re-recording run lost the failure (got " +
                  std::string(vm::outcomeName(run.outcome)) + ")";
        return res;
    }

    vm::VmConfig cfg;
    log.applyTo(cfg);
    cfg.engine = opts.engine;
    if (!buildReplayLog(log.program, log.scheduleToken, cfg, rec, run,
                        res.minimized, res.err))
        return res;

    // The output carries the standard faithfulness contract: one
    // strict replay must match its fingerprint before we hand it out.
    ReplayRun verify = replayLog(m, res.minimized, opts.engine);
    if (!verify.faithful) {
        res.err =
            "minimised log failed strict verification: " +
            verify.mismatch;
        return res;
    }

    res.minimizedSwitches = res.minimized.switches.size();
    res.ok = true;
    return res;
}

RecordedRun
recordRun(const ir::Module &m, const vm::VmConfig &cfg)
{
    RecordedRun run;
    run.config = cfg;
    run.recorder =
        std::make_unique<FlightRecorder>(4096, RecorderMode::Grow);
    vm::VmConfig rcfg = cfg;
    rcfg.recorder = run.recorder.get();
    rcfg.recordSharedAccesses = true;
    run.result = vm::runProgram(m, rcfg);
    return run;
}

bool
minimizeRecordedRun(const ir::Module &m, const RecordedRun &run,
                    const std::string &program, const std::string &token,
                    const MinimizeOptions *opts, MinimizedLog &out,
                    std::string &err)
{
    if (!buildReplayLog(program, token, run.config, *run.recorder,
                        run.result, out.recorded, err))
        return false;
    out.ddmin = MinimizeResult{};
    if (opts)
        out.ddmin = minimizeReplayLog(m, out.recorded, *opts);
    return true;
}

} // namespace conair::obs::replay
