/**
 * @file
 * conair — the command line over the whole pipeline, one subcommand
 * per single-program workflow.  Schedule-exploration campaigns are
 * bench/bench_explore.cpp; the tokens their reports print feed `repro`
 * and `fix`.
 *
 *   conair run [flags] FILE.mc | --app NAME
 *       Compile a MiniC file, optionally harden it with ConAir, and run
 *       it on the VM.  --app NAME runs a bundled bug kernel instead
 *       (FFT, MySQL1, ...): its source, hardened (--app implies
 *       --conair), under its failure-forcing schedule (the kernel's
 *       buggyConfig, which every run flag below then adjusts).
 *         --conair            harden with survival-mode ConAir
 *         --fix TAG           harden only the failure site TAG
 *                             (repeatable; implies --conair)
 *         --no-interproc      disable §4.3 inter-procedural recovery
 *         --no-optimize       disable the §4.2 optimizer
 *         --report            print the ConAir pipeline report
 *         --print-ir          dump the (possibly hardened) MiniIR
 *         --seed N            scheduler seed (default 1)
 *         --quantum N         preemption quantum
 *         --max-steps N       instruction budget
 *         --delay HINT:TICKS  stall hint(HINT) for TICKS (repeatable)
 *         --trace FILE        Chrome trace_event JSON of the run
 *                             (Perfetto; docs/OBSERVABILITY.md)
 *         --metrics FILE      the run's metrics registry JSON
 *         --profile FILE      the run's recovery-cost phase profile:
 *                             hot-phase table to stderr,
 *                             speedscope JSON to FILE, folded
 *                             flamegraph stacks next to it (.folded)
 *         --timeline          print the recovery timeline to stderr
 *         --diagnose          record shared accesses and print the
 *                             postmortem root-cause report to stderr
 *         --serve PORT        after the run, serve its telemetry on
 *                             127.0.0.1:PORT (0 = ephemeral): GET
 *                             /metrics, /status, /coverage, and
 *                             /profile with --profile
 *         --serve-seconds N   how long --serve stays up (default 5)
 *       The guest's output goes to stdout; exit status is the guest's
 *       exit code, 1 when the run fails.
 *
 *   conair repro APP TOKEN [flags]
 *       Re-run one campaign schedule (e.g. "pct:d2:s2") through the
 *       differential oracle and print its detail; exit 1 on an engine
 *       divergence or a failed cross-check.
 *         --trace FILE          Chrome trace of both legs; the trace's
 *                               per-kind totals are cross-checked
 *                               against the run
 *         --metrics FILE        the hardened leg's metrics registry
 *                               JSON, plus Prometheus text next to it
 *                               (.prom)
 *         --timeline            the hardened leg's recovery timeline
 *         --profile FILE        the hardened leg's phase profile
 *         --diagnose            postmortem report of the leg
 *                               explore::diagnoseSchedule() picks
 *         --diagnose-json FILE  that report as JSON (implies --diagnose)
 *         --record-replay FILE  record the unhardened leg replay-grade,
 *                               verify it, and save it as FILE
 *         --minimize            ddmin-minimise the recorded switch list
 *
 *   conair replay LOG [flags]
 *       The O(1) repro path: re-execute a recorded replay log and check
 *       it against the recorded fingerprint; exit 0 iff faithful.
 *         --engine reference|fused  replay engine (default: the
 *                                   recording's)
 *         --timeline      the time-travel interleaving timeline
 *         --diagnose      postmortem report of the replayed run
 *         --trace FILE    Chrome trace of the replayed run
 *         --profile FILE  phase profile of the replayed run
 *
 *   conair fix [APP] [TOKEN] [flags]
 *       Synthesize a fix for APP (default ZSNES) from a postmortem
 *       diagnosis and prove it regression-free: the ddmin-minimised
 *       failing schedule replays clean on the patch, the campaign
 *       matrix re-runs on it with no failure, and its clean-run overhead
 *       stays in bound.  The failure is campaign schedule TOKEN, or else
 *       the kernel's scripted failure-forcing schedule probed over seeds
 *       1..8.  Exit 0 iff the patch validated.  See docs/FIXING.md.
 *         --fix-json FILE  the patch and validation report as JSON
 *         --seeds N        validation seeds per policy (default 40)
 *         --workers N      validation worker threads (default 4)
 *         --print-ir       dump the patched module
 *
 * An unknown flag, a flag the subcommand does not take, a missing
 * operand, a stray argument, a repeated flag (other than --fix TAG and
 * --delay) or a malformed number is a one-line error with exit
 * status 2, before anything runs.
 */
#include <chrono>
#include <climits>
#include <cstdio>
#include <string>
#include <thread>

#include "apps/harness.h"
#include "conair/driver.h"
#include "explore/campaign.h"
#include "explore/stages.h"
#include "fix/fix.h"
#include "fix/report.h"
#include "fix/validate.h"
#include "frontend/compile.h"
#include "ir/printer.h"
#include "obs/coverage/coverage.h"
#include "obs/metrics.h"
#include "obs/postmortem/diagnosis.h"
#include "obs/profile/profile_export.h"
#include "obs/replay/minimize.h"
#include "obs/replay/replay_export.h"
#include "obs/replay/replay_run.h"
#include "obs/serve/http_server.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "support/args.h"
#include "support/json.h"
#include "support/prom.h"
#include "support/str.h"
#include "vm/interp.h"

using namespace conair;
using namespace conair::apps;
using namespace conair::explore;

namespace {

const char *const kUsage =
    "usage: conair run [--conair] [--fix TAG] [--no-interproc] "
    "[--no-optimize]\n"
    "                  [--report] [--print-ir] [--seed N] [--quantum N] "
    "[--max-steps N]\n"
    "                  [--delay HINT:TICKS] [--trace FILE] "
    "[--metrics FILE]\n"
    "                  [--profile FILE] [--timeline] [--diagnose]\n"
    "                  [--serve PORT [--serve-seconds N]]\n"
    "                  FILE.mc | --app NAME\n"
    "       conair repro APP TOKEN [--trace FILE] [--metrics FILE] "
    "[--timeline]\n"
    "                  [--profile FILE] [--diagnose] "
    "[--diagnose-json FILE]\n"
    "                  [--record-replay FILE [--minimize]]\n"
    "       conair replay LOG [--engine reference|fused] [--timeline] "
    "[--diagnose]\n"
    "                  [--trace FILE] [--profile FILE]\n"
    "       conair fix [APP] [TOKEN] [--fix-json FILE] [--seeds N] "
    "[--workers N]\n"
    "                  [--print-ir]\n";

/** A flag that would be ignored without another: a one-line error. */
bool
needs(const Args &args, const char *flag, bool given, const char *other)
{
    if (!args.has(flag) || given)
        return true;
    std::fprintf(stderr, "conair: %s needs %s\n", flag, other);
    return false;
}

/** The bundled kernel @p name, or null after a one-line error that
 *  lists the kernels. */
const AppSpec *
findKernel(const std::string &name)
{
    if (const AppSpec *spec = findApp(name))
        return spec;
    std::string have;
    for (const AppSpec &a : allApps())
        have += " " + a.name;
    std::fprintf(stderr, "conair: unknown app '%s' (have:%s)\n",
                 name.c_str(), have.c_str());
    return nullptr;
}

/** A one-group profile of one run. */
obs::prof::ProfileDoc
runProfile(const vm::RunStats &run, const std::string &label)
{
    obs::prof::ProfileAgg agg;
    agg.add(run);
    obs::prof::ProfileDoc doc;
    doc.phaseGroups.emplace_back(label, agg);
    return doc;
}

/** One observed single run, as `run` and `replay` report it. */
struct ObservedRun
{
    const obs::FlightRecorder &rec;
    const ir::Module &module; ///< the module @c rec recorded
    std::string program;      ///< diagnosis label
    std::string token;        ///< diagnosis schedule token ("" for run)
    std::string traceName;    ///< Chrome trace process name
    std::string timeline;     ///< what --timeline prints
};

/** Prints the --timeline text and the --diagnose postmortem of @p run
 *  on @p out, and writes its --trace artifact; false when the trace
 *  cannot be written. */
bool
emitObservedRun(const ObservedRun &run, const Args &args, std::FILE *out)
{
    if (args.has("--timeline"))
        std::fprintf(out, "%s", run.timeline.c_str());
    if (args.has("--diagnose"))
        std::fprintf(out, "%s",
                     obs::pm::renderText(
                         obs::pm::diagnose(run.rec, run.module,
                                           run.program, run.token))
                         .c_str());
    return !args.has("--trace") ||
           writeFile(args.text("--trace"),
                     obs::chromeTraceJson(run.rec, run.traceName), out);
}

/**
 * run --serve: post-run telemetry exposition.  The run is already done —
 * the handlers render snapshots of its recorder fold and metrics
 * registry, so serving cannot perturb anything.  Blocks for
 * @p seconds, then shuts the server down.
 */
int
serveRunTelemetry(unsigned port, unsigned seconds,
                  const std::string &name, const vm::RunResult &run,
                  const obs::FlightRecorder &recorder,
                  const obs::MetricsRegistry &metrics,
                  const obs::prof::ProfileDoc *profile)
{
    obs::cov::CoverageFold cov = obs::cov::foldCoverage(recorder);

    std::string prom = metrics.toPrometheusText();
    promFamily(prom, "conair_run_steps", "gauge",
               "Instructions the run executed.", run.stats.steps);
    promFamily(prom, "conair_run_rollbacks", "gauge",
               "ConAir rollbacks during the run.", run.stats.rollbacks);
    promFamily(prom, "conair_coverage_distinct_edges", "gauge",
               "Distinct interleaving-coverage edges in the run's trace.",
               cov.edges.size());

    JsonWriter sw(2);
    sw.beginObject();
    sw.key("run").beginObject();
    sw.key("program").value(name);
    sw.key("outcome").value(vm::outcomeName(run.outcome));
    sw.key("exit_code").value(int64_t(run.exitCode));
    sw.key("steps").value(run.stats.steps);
    sw.key("clock").value(run.clock);
    sw.key("rollbacks").value(run.stats.rollbacks);
    sw.key("recoveries").value(uint64_t(run.stats.recoveries.size()));
    sw.endObject();
    sw.key("coverage").beginObject();
    sw.key("distinct_edges").value(uint64_t(cov.edges.size()));
    sw.key("by_kind").beginObject();
    for (size_t k = 0; k < obs::cov::kEdgeKindCount; ++k)
        sw.key(obs::cov::edgeKindName(obs::cov::EdgeKind(k)))
            .value(cov.perKind[k]);
    sw.endObject();
    sw.endObject();
    sw.endObject();
    std::string status = sw.str();

    JsonWriter cw(2);
    cw.beginObject();
    cw.key("distinct_edges").value(uint64_t(cov.edges.size()));
    obs::cov::writeEdgesJson(cw, cov.edges);
    cw.endObject();
    std::string coverage = cw.str();

    obs::serve::HttpServer server;
    obs::serve::TelemetryBodies bodies{[prom] { return prom; },
                                       [status] { return status; },
                                       [coverage] { return coverage; },
                                       {}};
    if (profile) {
        std::string doc = obs::prof::speedscopeJson(*profile, name);
        bodies.profile = [doc] { return doc; };
    }
    const std::string routes =
        obs::serve::routeTelemetry(server, std::move(bodies));
    std::string err;
    if (!server.start(uint16_t(port), err)) {
        std::fprintf(stderr, "conair run: --serve: %s\n", err.c_str());
        return 2;
    }
    std::fprintf(stderr,
                 "; serving run telemetry on 127.0.0.1:%u for %u "
                 "second(s) (%s)\n",
                 unsigned(server.port()), seconds, routes.c_str());
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    server.stop();
    std::fprintf(stderr, "; telemetry server: %llu requests served\n",
                 (unsigned long long)server.requestsServed());
    return 0;
}

/** conair run: compile, harden, run — one path for a file and --app. */
int
cmdRun(const Args &args)
{
    const bool app = args.has("--app");
    if (app == !args.positionals.empty()) {
        std::fprintf(stderr, "conair run: give FILE.mc or --app NAME\n");
        return 2;
    }
    const bool harden = app || args.has("--conair") || args.has("--fix");
    if (!needs(args, "--report", harden, "--conair") ||
        !needs(args, "--no-interproc", harden, "--conair") ||
        !needs(args, "--no-optimize", harden, "--conair") ||
        !needs(args, "--serve-seconds", args.has("--serve"), "--serve"))
        return 2;

    // The program: a file's source, or a bundled kernel's.
    const AppSpec *spec = nullptr;
    std::string name, source;
    if (app) {
        name = args.text("--app");
        if (!(spec = findKernel(name)))
            return 2;
        source = spec->source;
    } else {
        name = args.positionals[0];
        std::string err;
        if (!readFile(name, source, err)) {
            std::fprintf(stderr, "conair run: %s\n", err.c_str());
            return 2;
        }
    }

    DiagEngine diags;
    fe::CompileOptions fopts;
    fopts.moduleName = name;
    std::unique_ptr<ir::Module> module =
        fe::compileMiniC(source, diags, fopts);
    if (!module) {
        std::fprintf(stderr, "%s", diags.str().c_str());
        return 1;
    }
    if (harden) {
        ca::ConAirOptions copts;
        copts.interproc = !args.has("--no-interproc");
        copts.optimize = !args.has("--no-optimize");
        if (args.has("--fix")) {
            copts.mode = ca::Mode::Fix;
            copts.fixTags = args.list("--fix");
        }
        ca::ConAirReport r = ca::applyConAir(*module, copts);
        if (args.has("--report"))
            std::printf("; conair: %u sites (%u assert / %u output / "
                        "%u segfault / %u deadlock), %u reexecution "
                        "points, %u interprocedural, %u dropped, "
                        "%.0f us\n",
                        r.identified.total(), r.identified.assertion,
                        r.identified.wrongOutput, r.identified.segfault,
                        r.identified.deadlock, r.staticReexecPoints,
                        r.interprocSites, r.sitesDroppedByOptimizer,
                        r.analysisMicros);
    }
    if (args.has("--print-ir"))
        std::printf("%s", ir::printModule(*module).c_str());

    vm::VmConfig cfg = spec ? spec->buggyConfig : vm::VmConfig{};
    cfg.seed = args.number("--seed", 1);
    cfg.quantum = args.number("--quantum", cfg.quantum);
    cfg.maxSteps = args.number("--max-steps", cfg.maxSteps);
    for (const std::string &d : args.list("--delay")) {
        std::vector<std::string> f = split(d, ':');
        uint64_t hint = 0, ticks = 0;
        if (f.size() != 2 || !parseU64(f[0], hint) ||
            !parseU64(f[1], ticks)) {
            std::fprintf(stderr,
                         "conair run: --delay: '%s' is not HINT:TICKS\n",
                         d.c_str());
            return 2;
        }
        cfg.delays.push_back({hint, ticks});
    }

    // Diagnosis needs shared accesses recorded, about one event per
    // sched tick, hence the deep ring; --serve's /coverage folds them.
    const bool profile = args.has("--profile");
    const bool serve = args.has("--serve");
    const bool recordShared = args.has("--diagnose") || serve;
    obs::FlightRecorder recorder(recordShared ? 65536 : 8192);
    obs::MetricsRegistry metrics;
    if (recordShared || profile || args.has("--trace") ||
        args.has("--metrics") || args.has("--timeline")) {
        cfg.recorder = &recorder;
        cfg.metrics = &metrics;
        cfg.recordSharedAccesses = recordShared;
    }
    vm::RunResult run = vm::runProgram(*module, cfg);
    std::fputs(run.output.c_str(), stdout);
    std::fprintf(stderr,
                 "; %s: %s, %llu rollback(s), %zu recovery "
                 "episode(s)%s%s\n",
                 name.c_str(), vm::outcomeName(run.outcome),
                 (unsigned long long)run.stats.rollbacks,
                 run.stats.recoveries.size(),
                 run.failureMsg.empty() ? "" : ": ",
                 run.failureMsg.c_str());

    if (!emitObservedRun({recorder, *module, name, "", name,
                          obs::recoveryTimeline(recorder)},
                         args, stderr))
        return 2;
    if (args.has("--metrics") &&
        !writeFile(args.text("--metrics"), metrics.toJson() + "\n",
                   stderr))
        return 2;
    obs::prof::ProfileDoc profileDoc = runProfile(run.stats, name);
    if (profile) {
        std::fprintf(stderr, "%s",
                     obs::prof::hotPhaseTable(profileDoc).c_str());
        if (!obs::prof::writeProfileArtifacts(
                profileDoc, name, args.text("--profile"), stderr))
            return 2;
    }
    if (serve &&
        serveRunTelemetry(unsigned(args.number("--serve", 0)),
                          unsigned(args.number("--serve-seconds", 5)),
                          name, run, recorder, metrics,
                          profile ? &profileDoc : nullptr) != 0)
        return 2;
    return run.outcome == vm::Outcome::Success ? int(run.exitCode & 0xff)
                                               : 1;
}

/**
 * Traces one (target, schedule) cell and emits the requested
 * artifacts.  Returns false when the trace's wraparound-surviving
 * rollback/checkpoint totals disagree with the run's RunStats — the
 * cross-check the acceptance criteria pin.
 */
bool
traceSchedule(const Target &target, const ScheduleSpec &s,
              CampaignOptions opts, const std::string &appName,
              const std::string &tracePath,
              const std::string &metricsPath, bool timeline)
{
    // Diagnosis-grade recording (shared accesses on): the coverage
    // fold below needs the access sites, and the campaign's coverage
    // legs record the same way — so the edge set annotated here is the
    // edge set the campaign counted.  Grown capacity to match.
    obs::FlightRecorder unhardenedRec(65536);
    obs::FlightRecorder hardenedRec(65536);
    ScheduleInstruments ins{&unhardenedRec, &hardenedRec};
    ins.recordSharedAccesses = true;
    opts.collectMetrics = true;
    ScheduleOutcome o = runOneSchedule(target, s, opts, &ins);

    // Fold the unhardened leg's interleaving coverage and annotate the
    // recorder with it, so the trace artifact and timeline carry the
    // coverage-novel / coverage-snapshot events (folding is post-run;
    // it never touches execution).
    obs::cov::CoverageFold cov = obs::cov::foldCoverage(unhardenedRec);
    obs::cov::annotateRecorder(unhardenedRec, cov.edges,
                               cov.edges.size());

    if (!tracePath.empty()) {
        std::vector<obs::TraceProcess> procs = {
            {&unhardenedRec, appName + " unhardened " + s.token(), 1},
            {&hardenedRec, appName + " hardened " + s.token(), 2},
        };
        if (!writeFile(tracePath, obs::chromeTraceJson(procs), nullptr))
            return false;
        std::printf("wrote %s (%llu events, %llu dropped by ring "
                    "wraparound)\n",
                    tracePath.c_str(),
                    (unsigned long long)(unhardenedRec.totalRecordedAll() +
                                         hardenedRec.totalRecordedAll()),
                    (unsigned long long)(unhardenedRec.droppedAll() +
                                         hardenedRec.droppedAll()));
    }
    // The same registry in Prometheus text exposition format next to
    // the JSON, for scrape-style consumers (docs/OBSERVABILITY.md).
    if (!metricsPath.empty() &&
        (!writeFile(metricsPath, o.metrics.toJson() + "\n", stdout) ||
         !writeFile(withExtension(metricsPath, ".prom"),
                    o.metrics.toPrometheusText(), stdout)))
        return false;
    if (timeline) {
        std::printf("--- recovery timeline (hardened leg) ---\n%s",
                    obs::recoveryTimeline(hardenedRec).c_str());
    }

    // Trace-vs-stats cross-check: per-kind totals survive wraparound,
    // so EVERY recovery-relevant event total must equal the hardened
    // leg's RunStats counter exactly — and a mismatch names the
    // counter that diverged instead of hiding behind two of them.
    const vm::RunStats &st = o.hardenedStats;
    const struct
    {
        obs::EventKind kind;
        uint64_t stat;
    } checks[] = {
        {obs::EventKind::Rollback, st.rollbacks},
        {obs::EventKind::Checkpoint, st.checkpointsExecuted},
        {obs::EventKind::CompensationFree, st.compensationFrees},
        {obs::EventKind::CompensationUnlock, st.compensationUnlocks},
        {obs::EventKind::Backoff, st.backoffs},
        {obs::EventKind::ChaosRollback, st.chaosRollbacks},
        // The recorder also logs the main thread's birth, so spawn
        // events run one ahead of the threadsSpawned counter.
        {obs::EventKind::ThreadSpawn, st.threadsSpawned + 1},
        {obs::EventKind::RecoveryDone, st.recoveries.size()},
    };
    bool ok = true;
    for (const auto &c : checks) {
        uint64_t traced = hardenedRec.totalOf(c.kind);
        if (traced != c.stat) {
            std::printf("trace totals vs RunStats: %s DIVERGED "
                        "(trace %llu, stats %llu)\n",
                        obs::eventKindName(c.kind),
                        (unsigned long long)traced,
                        (unsigned long long)c.stat);
            ok = false;
        }
    }
    if (ok)
        std::printf("trace totals vs RunStats: all %zu event kinds "
                    "match (rollbacks %llu, checkpoints %llu, "
                    "recoveries %zu)\n",
                    std::size(checks),
                    (unsigned long long)st.rollbacks,
                    (unsigned long long)st.checkpointsExecuted,
                    st.recoveries.size());
    return ok;
}

/** Compiles kernel @p appName for a campaign and parses @p token into
 *  @p s (skipped when empty); null after a one-line error when the
 *  kernel is unknown or the token malformed. */
std::unique_ptr<CampaignApp>
prepareSchedule(const std::string &appName, const std::string &token,
                ScheduleSpec &s)
{
    const AppSpec *spec = findKernel(appName);
    if (!spec)
        return nullptr;
    std::string err;
    if (token.empty() || parseScheduleToken(token, s, err))
        return std::make_unique<CampaignApp>(prepareCampaignApp(*spec));
    std::fprintf(stderr, "conair: %s\n", err.c_str());
    return nullptr;
}

/**
 * Replays (target, schedule) in diagnosis recording mode and prints
 * the postmortem RecoveryReport of the leg explore::diagnoseSchedule()
 * picks.  Returns false when no diagnosis could be produced at all.
 */
bool
printDiagnosis(const Target &target, const ScheduleSpec &s,
               const CampaignOptions &opts, const std::string &jsonPath)
{
    obs::FlightRecorder plainRec(kDiagnosisRingCapacity);
    obs::FlightRecorder hardRec(kDiagnosisRingCapacity);
    LegDiagnosis d = diagnoseSchedule(target, s, opts, plainRec, hardRec);
    std::printf("diagnosing the %s leg\n", d.leg());
    std::printf("%s", obs::pm::renderText(d.report).c_str());
    if (!jsonPath.empty() &&
        !writeFile(jsonPath, obs::pm::toJson(d.report) + "\n", stdout))
        return false;
    return !d.report.episodes.empty();
}

/**
 * repro --record-replay: record the unhardened leg of (target,
 * schedule) replay-grade, optionally ddmin-minimise, verify, and save.
 */
bool
recordReplayLog(const Target &target, const ScheduleSpec &s,
                const CampaignOptions &opts, const std::string &path,
                bool minimize)
{
    obs::replay::RecordedRun run = obs::replay::recordRun(
        *target.plain, makeBaseConfig(target, s, opts));
    obs::replay::MinimizeOptions mo;
    obs::replay::MinimizedLog logs;
    std::string err;
    if (!obs::replay::minimizeRecordedRun(*target.plain, run, target.name,
                                          s.token(),
                                          minimize ? &mo : nullptr, logs,
                                          err)) {
        std::fprintf(stderr, "record failed: %s\n", err.c_str());
        return false;
    }
    if (minimize && logs.ddmin.ok)
        std::printf("minimised: %zu -> %zu switches (%llu replay "
                    "probes)\n",
                    logs.ddmin.originalSwitches,
                    logs.ddmin.minimizedSwitches,
                    (unsigned long long)logs.ddmin.probes);
    else if (minimize)
        std::fprintf(stderr, "minimisation skipped: %s\n",
                     logs.ddmin.err.c_str());
    const obs::replay::ReplayLog &log = logs.best();

    // Never hand out an unverified log: one strict replay must match.
    obs::replay::ReplayRun check =
        obs::replay::replayLog(*target.plain, log, log.engine);
    if (!check.faithful) {
        std::fprintf(stderr, "recorded log failed verification: %s\n",
                     check.mismatch.c_str());
        return false;
    }
    if (!obs::replay::saveReplayLog(path, log, err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return false;
    }
    std::printf("wrote %s (%zu switches, %zu lock acquisitions, "
                "outcome %s)\n",
                path.c_str(), log.switches.size(), log.locks.size(),
                log.outcome.c_str());
    return true;
}

/** conair repro APP TOKEN. */
int
cmdRepro(const Args &args)
{
    if (!needs(args, "--minimize", args.has("--record-replay"),
               "--record-replay"))
        return 2;
    const std::string &appName = args.positionals[0];
    const std::string &token = args.positionals[1];
    ScheduleSpec s;
    std::unique_ptr<CampaignApp> app = prepareSchedule(appName, token, s);
    if (!app)
        return 2;
    Target target = campaignTarget(*app);
    const bool profile = args.has("--profile");
    CampaignOptions opts;
    opts.collectProfile = profile;
    ScheduleOutcome o = runOneSchedule(target, s, opts);

    std::printf("=== repro %s %s ===\n", appName.c_str(),
                token.c_str());
    std::printf("unhardened: %s%s%s  (%llu steps)\n",
                vm::outcomeName(o.unhardened),
                o.unhardenedTag.empty() ? "" : " @ ",
                o.unhardenedTag.c_str(), (unsigned long long)o.steps);
    std::printf("  correct: %s  inconclusive: %s\n",
                o.unhardenedCorrect ? "yes" : "no",
                o.unhardenedInconclusive ? "yes" : "no");
    if (o.hardenedRan)
        std::printf("hardened:   %s  correct: %s  chaos: %s "
                    "(%llu chaos rollbacks)\n",
                    vm::outcomeName(o.hardened),
                    o.hardenedCorrect ? "yes" : "no",
                    o.chaos ? "on" : "off",
                    (unsigned long long)o.hardenedStats.chaosRollbacks);
    if (o.diverged)
        std::printf("ENGINE DIVERGENCE: %s\n", o.divergenceMsg.c_str());
    else
        std::printf("engines: Fused == Reference (tick-identical)\n");

    bool ok = !o.diverged;
    if (profile) {
        obs::prof::ProfileDoc doc;
        if (o.hasProfile)
            doc = runProfile(o.hardenedStats, appName + " " + token);
        forEachWallSpan(o, opts, [&](size_t leg, uint64_t us) {
            doc.wall.push_back({appName, token, kWallLegs[leg], us, 1});
        });
        std::printf("%s", obs::prof::hotPhaseTable(doc).c_str());
        if (!o.hasProfile)
            std::printf("(hardened leg did not run — no "
                        "deterministic phase profile)\n");
        ok &= obs::prof::writeProfileArtifacts(
            doc, appName + " " + token, args.text("--profile"), stdout);
    }
    if (args.has("--trace") || args.has("--metrics") ||
        args.has("--timeline"))
        ok &= traceSchedule(target, s, opts, appName, args.text("--trace"),
                            args.text("--metrics"),
                            args.has("--timeline"));
    if (args.has("--diagnose") || args.has("--diagnose-json"))
        ok &= printDiagnosis(target, s, opts,
                             args.text("--diagnose-json"));
    if (args.has("--record-replay"))
        ok &= recordReplayLog(target, s, opts,
                              args.text("--record-replay"),
                              args.has("--minimize"));
    return ok ? 0 : 1;
}

/**
 * conair replay LOG: loads a replay log, re-executes it under --engine
 * (default: the engine it was recorded under), and reports the
 * faithfulness verdict — exit 0 iff the replay is fingerprint-identical
 * to the recording.
 */
int
cmdReplay(const Args &args)
{
    const std::string &path = args.positionals[0];
    obs::replay::ReplayLog log;
    std::string err;
    if (!obs::replay::loadReplayLog(path, log, err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
    }
    const AppSpec *spec = findKernel(log.program);
    if (!spec)
        return 2;
    vm::ExecEngine engine = log.engine;
    if (args.has("--engine") &&
        !obs::replay::engineFromName(args.text("--engine"), engine)) {
        std::fprintf(stderr, "conair replay: unknown engine '%s' "
                             "(reference|fused)\n",
                     args.text("--engine").c_str());
        return 2;
    }
    CampaignApp app = prepareCampaignApp(*spec);
    Target target = campaignTarget(app);
    const std::string token = log.scheduleToken.empty()
                                  ? std::string("(no token)")
                                  : log.scheduleToken;

    std::printf("=== replay %s ===\n", path.c_str());
    std::printf("%s %s: recorded under %s, replaying under %s "
                "(%zu switches, %zu lock acquisitions)\n",
                log.program.c_str(), token.c_str(),
                obs::replay::engineName(log.engine),
                obs::replay::engineName(engine), log.switches.size(),
                log.locks.size());
    std::printf("recorded fingerprint: %s%s%s exit %lld clock %llu "
                "steps %llu memDigest %016llx\n",
                log.outcome.c_str(),
                log.failureTag.empty() ? "" : " @ ",
                log.failureTag.c_str(), (long long)log.exitCode,
                (unsigned long long)log.finalClock,
                (unsigned long long)log.finalSteps,
                (unsigned long long)log.memDigest);

    // Replay with every referee armed: the re-recording feeds the
    // lock-order check, the optional trace artifact, and the optional
    // diagnosis.  The profile is a fold of the replayed run's RunStats.
    obs::FlightRecorder rec(4096, obs::RecorderMode::Grow);
    obs::replay::ReplayInstruments ins;
    ins.recorder = &rec;
    ins.recordSharedAccesses =
        args.has("--diagnose") || log.accessCount > 0;
    ins.checkLockOrder = true;
    obs::replay::ReplayRun rr =
        obs::replay::replayLog(*target.plain, log, engine, &ins);

    if (rr.faithful)
        std::printf("replay FAITHFUL: fingerprint, lock order%s match "
                    "the recording\n",
                    log.accessCount > 0 ? ", and access digest" : "");
    else
        std::printf("replay DIVERGED: %s\n", rr.mismatch.c_str());

    if (!emitObservedRun({rec, *target.plain, log.program,
                          log.scheduleToken,
                          log.program + " replay " + log.scheduleToken,
                          "--- replay timeline (time travel) ---\n" +
                              obs::replay::replayTimeline(log)},
                         args, stdout))
        return 1;
    if (args.has("--profile")) {
        obs::prof::ProfileDoc doc =
            runProfile(rr.result.stats, log.program + " replay " + token);
        std::printf("%s", obs::prof::hotPhaseTable(doc).c_str());
        if (!obs::prof::writeProfileArtifacts(doc,
                                              log.program + " replay",
                                              args.text("--profile"),
                                              stdout))
            return 1;
    }
    return rr.faithful ? 0 : 1;
}

/**
 * fix's strict operand scanner for "[APP] [TOKEN]".  Every operand is
 * classified exactly once: a string the *strict* parseScheduleToken
 * accepts is the schedule token; otherwise it must name a registered
 * kernel.  Anything else is a one-line error naming both failed
 * interpretations — no positional guessing.
 */
bool
parseAppToken(const std::vector<std::string> &operands, std::string &app,
              std::string &token)
{
    bool seen[2] = {false, false}; // token, kernel
    std::string error;
    for (const std::string &op : operands) {
        ScheduleSpec s;
        std::string tokErr;
        bool isToken = parseScheduleToken(op, s, tokErr);
        if (!isToken && !findApp(op))
            error = "'" + op + "' is neither a schedule token (" +
                    tokErr + ") nor a known kernel";
        else if (seen[!isToken])
            error = std::string("two ") +
                    (isToken ? "schedule tokens" : "kernels") + " ('" +
                    (isToken ? token : app) + "' and '" + op + "')";
        if (!error.empty()) {
            std::fprintf(stderr, "conair fix: %s\n", error.c_str());
            return false;
        }
        (isToken ? token : app) = op;
        seen[!isToken] = true;
    }
    return true;
}

/**
 * conair fix [APP] [TOKEN]: the whole closed loop for one kernel —
 * diagnose a failing run, synthesize a fix from the diagnosis,
 * ddmin-minimise the failing schedule, and validate the patch
 * (minimized replay + campaign matrix + clean-run overhead).
 */
int
cmdFix(const Args &args)
{
    std::string appName = "ZSNES", token;
    if (!parseAppToken(args.positionals, appName, token))
        return 2;
    const std::string jsonPath = args.text("--fix-json");
    const unsigned seeds = unsigned(args.number("--seeds", 40));
    ScheduleSpec s;
    std::unique_ptr<CampaignApp> app = prepareSchedule(appName, token, s);
    if (!app)
        return 2;
    Target target = campaignTarget(*app);

    // Step 1: one failing run of the unhardened build, recorded
    // replay-grade: the given campaign schedule, or else the kernel's
    // scripted failure-forcing schedule (the hand-tuned delay rules).
    obs::replay::RecordedRun run;
    if (!token.empty()) {
        run = obs::replay::recordRun(
            *target.plain, makeBaseConfig(target, s, CampaignOptions{}));
        if (runIsCorrect(*app->spec, run.result)) {
            std::fprintf(stderr,
                         "%s %s: schedule does not fail (%s) — "
                         "nothing to fix\n",
                         appName.c_str(), token.c_str(),
                         vm::outcomeName(run.result.outcome));
            return 1;
        }
    } else if (!probeScriptedFailure(*app, run)) {
        std::fprintf(stderr,
                     "%s: scripted buggy schedule never failed over "
                     "seeds 1..8 — nothing to fix\n",
                     appName.c_str());
        return 1;
    }
    const vm::RunResult &fail = run.result;
    std::printf("recorded failing run: %s%s%s (%llu steps)\n",
                vm::outcomeName(fail.outcome),
                fail.failureTag.empty() ? "" : " @ ",
                fail.failureTag.c_str(),
                (unsigned long long)fail.stats.steps);

    // Step 2: postmortem diagnosis of the failing run.
    obs::pm::RecoveryReport rep =
        diagnoseRecordedRun(target, run, token).report;
    if (rep.episodes.empty()) {
        std::fprintf(stderr, "%s: diagnosis produced no episodes\n",
                     appName.c_str());
        return 1;
    }
    std::printf("diagnosis: %s on '%s'\n",
                obs::pm::verdictName(rep.primary()->verdict),
                rep.primary()->variable.c_str());

    // Step 3: replay log of the failing run, ddmin-minimised — the
    // "exact buggy interleaving" obligation of the validator.
    obs::replay::MinimizeOptions mo;
    obs::replay::MinimizedLog logs;
    const obs::replay::ReplayLog *logp = nullptr;
    std::string err;
    if (obs::replay::minimizeRecordedRun(*target.plain, run, appName,
                                         token, &mo, logs, err)) {
        if (logs.ddmin.ok)
            std::printf("minimised failing schedule: %zu -> %zu "
                        "switches\n",
                        logs.ddmin.originalSwitches,
                        logs.ddmin.minimizedSwitches);
        logp = &logs.best();
    } else {
        std::fprintf(stderr, "replay log skipped: %s\n", err.c_str());
    }

    // Step 4: synthesize, then prove the patch regression-free.
    fix::FixPlan plan = fix::synthesizeFix(*target.plain, rep);
    if (!plan.ok) {
        std::printf("%s", fix::renderPatchText(plan).c_str());
        if (!jsonPath.empty())
            writeFile(jsonPath, fix::patchToJson(plan) + "\n", stdout);
        return 1;
    }
    fix::ValidationOptions vopts;
    vopts.campaign.seedsPerPolicy = seeds;
    vopts.campaign.workers = unsigned(args.number("--workers", 4));
    vopts.cleanConfig = app->spec->cleanConfig;
    std::printf("validating: %s replay + %zu-policy x %u-seed "
                "campaign + overhead bound...\n",
                logp ? "minimized" : "(no)",
                vopts.campaign.policies.size(), seeds);
    fix::ValidationResult val =
        fix::validatePatch(*plan.patched, target, logp, vopts);
    std::printf("%s", fix::renderPatchText(plan, &val).c_str());
    if (args.has("--print-ir"))
        std::printf("%s", ir::printModule(*plan.patched).c_str());
    if (!jsonPath.empty() &&
        !writeFile(jsonPath, fix::patchToJson(plan, &val) + "\n", stdout))
        return 1;
    return val.ok() ? 0 : 1;
}

/** A subcommand: its flag table and its entry point. */
struct Command
{
    const char *name;
    ArgSpec spec;
    int (*run)(const Args &);
};

} // namespace

int
main(int argc, char **argv)
{
    using enum FlagKind;
    const Command commands[] = {
        {"run",
         {{{"--conair"},
           {"--fix", List},
           {"--no-interproc"},
           {"--no-optimize"},
           {"--report"},
           {"--print-ir"},
           {"--seed", Number},
           {"--quantum", Number},
           {"--max-steps", Number},
           {"--delay", List},
           {"--app", Text},
           {"--trace", Text},
           {"--metrics", Text},
           {"--profile", Text},
           {"--timeline"},
           {"--diagnose"},
           {"--serve", Number, 65535},
           {"--serve-seconds", Number, UINT_MAX}},
          0,
          1},
         cmdRun},
        {"repro",
         {{{"--trace", Text},
           {"--metrics", Text},
           {"--timeline"},
           {"--profile", Text},
           {"--diagnose"},
           {"--diagnose-json", Text},
           {"--record-replay", Text},
           {"--minimize"}},
          2,
          2},
         cmdRepro},
        {"replay",
         {{{"--engine", Text},
           {"--timeline"},
           {"--diagnose"},
           {"--trace", Text},
           {"--profile", Text}},
          1,
          1},
         cmdReplay},
        {"fix",
         {{{"--fix-json", Text},
           {"--seeds", Number, UINT_MAX},
           {"--workers", Number, UINT_MAX},
           {"--print-ir"}},
          0,
          2},
         cmdFix},
    };
    for (const Command &c : commands) {
        if (argc < 2 || argv[1] != std::string(c.name))
            continue;
        Args args;
        std::string err;
        if (!parseArgs(c.spec, std::vector<std::string>(argv + 2, argv + argc),
                       args, err)) {
            std::fprintf(stderr, "conair %s: %s\n", c.name, err.c_str());
            return 2;
        }
        return c.run(args);
    }
    if (argc >= 2)
        std::fprintf(stderr, "conair: unknown command '%s'\n", argv[1]);
    std::fputs(kUsage, stderr);
    return 2;
}
