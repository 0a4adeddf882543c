#include "obs/replay/replay_run.h"

#include "support/str.h"
#include "vm/interp.h"

namespace conair::obs::replay {

namespace {

vm::VmConfig
replayConfig(const ReplayLog &log, vm::ExecEngine engine)
{
    vm::VmConfig cfg;
    log.applyTo(cfg);
    cfg.engine = engine;
    return cfg;
}

/** The differential check every replay runs through: first diverging
 *  field, or empty when the replay is faithful. */
std::string
fingerprintDiff(const ReplayLog &log, const vm::RunResult &r)
{
    if (!r.replayDivergence.empty())
        return "divergence: " + r.replayDivergence;
    if (log.outcome != vm::outcomeName(r.outcome))
        return strfmt("outcome %s vs %s recorded",
                      vm::outcomeName(r.outcome), log.outcome.c_str());
    if (log.failureTag != r.failureTag)
        return "failure tag '" + r.failureTag + "' vs '" +
               log.failureTag + "' recorded";
    if (log.exitCode != r.exitCode)
        return strfmt("exit %lld vs %lld recorded",
                      (long long)r.exitCode, (long long)log.exitCode);
    if (log.finalClock != r.clock)
        return strfmt("clock %llu vs %llu recorded",
                      (unsigned long long)r.clock,
                      (unsigned long long)log.finalClock);
    if (log.finalSteps != r.stats.steps)
        return strfmt("steps %llu vs %llu recorded",
                      (unsigned long long)r.stats.steps,
                      (unsigned long long)log.finalSteps);
    if (log.schedTicks != r.stats.schedTicks)
        return strfmt("schedTicks %llu vs %llu recorded",
                      (unsigned long long)r.stats.schedTicks,
                      (unsigned long long)log.schedTicks);
    if (log.memDigest != r.memDigest)
        return strfmt("memDigest %016llx vs %016llx recorded",
                      (unsigned long long)r.memDigest,
                      (unsigned long long)log.memDigest);
    return {};
}

/** Lock-acquisition order referee (when a recorder observed the
 *  replay): the replayed LockAcquire stream must equal the log's. */
std::string
lockOrderDiff(const ReplayLog &log, const FlightRecorder &rec)
{
    std::vector<ReplayLog::LockAcq> replayed;
    rec.visitMerged([&replayed](const TraceEvent &ev) {
        if (ev.kind == EventKind::LockAcquire)
            replayed.push_back({ev.step, ev.tid, ev.a});
    });
    if (replayed.size() != log.locks.size())
        return strfmt("lock acquisitions %zu vs %zu recorded",
                      replayed.size(), log.locks.size());
    for (size_t i = 0; i < replayed.size(); ++i)
        if (!(replayed[i] == log.locks[i]))
            return strfmt(
                "lock acquisition #%zu: thread %u block %llu at step "
                "%llu vs thread %u block %llu at step %llu recorded",
                i, replayed[i].tid,
                (unsigned long long)replayed[i].block,
                (unsigned long long)replayed[i].step, log.locks[i].tid,
                (unsigned long long)log.locks[i].block,
                (unsigned long long)log.locks[i].step);
    return {};
}

} // namespace

ReplayRun
replayLog(const ir::Module &m, const ReplayLog &log,
          vm::ExecEngine engine, const ReplayInstruments *ins)
{
    vm::VmConfig cfg = replayConfig(log, engine);
    vm::ReplaySchedule sched = log.schedule(/*tolerant=*/false);
    cfg.replay = &sched;
    if (ins) {
        cfg.recorder = ins->recorder;
        cfg.recordSharedAccesses =
            ins->recorder && ins->recordSharedAccesses;
    }

    ReplayRun rr;
    rr.result = vm::runProgram(m, cfg);
    rr.mismatch = fingerprintDiff(log, rr.result);

    // The optional event-stream referees need the replay's own trace.
    if (rr.mismatch.empty() && ins && ins->recorder) {
        if (ins->checkLockOrder)
            rr.mismatch = lockOrderDiff(log, *ins->recorder);
        if (rr.mismatch.empty() && ins->recordSharedAccesses &&
            log.accessCount > 0) {
            auto [count, digest] = accessDigestOf(*ins->recorder);
            if (count != log.accessCount || digest != log.accessDigest)
                rr.mismatch = strfmt(
                    "shared-access stream %llu/%016llx vs "
                    "%llu/%016llx recorded",
                    (unsigned long long)count,
                    (unsigned long long)digest,
                    (unsigned long long)log.accessCount,
                    (unsigned long long)log.accessDigest);
        }
    }
    rr.faithful = rr.mismatch.empty();
    return rr;
}

vm::RunResult
replayTolerant(const ir::Module &m, const ReplayLog &log,
               const std::vector<vm::ReplaySchedule::Switch> &switches,
               vm::ExecEngine engine, const ReplayInstruments *ins)
{
    vm::VmConfig cfg = replayConfig(log, engine);
    vm::ReplaySchedule sched;
    sched.switches = switches;
    sched.tolerant = true;
    cfg.replay = &sched;
    if (ins) {
        cfg.recorder = ins->recorder;
        cfg.recordSharedAccesses =
            ins->recorder && ins->recordSharedAccesses;
    }
    return vm::runProgram(m, cfg);
}

} // namespace conair::obs::replay
