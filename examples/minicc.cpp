/**
 * @file
 * minicc — command-line driver for the whole stack: compile a MiniC
 * file, optionally harden it with ConAir, and run it on the MiniVM.
 *
 * Usage:
 *   minicc [options] file.mc
 *   minicc [options] --app NAME
 *     --conair             harden with survival-mode ConAir
 *     --fix TAG            harden only the site TAG (repeatable)
 *     --fix                (bare, with --app) synthesize a *source
 *                          fix* instead of hardening: diagnose one
 *                          scripted failing run postmortem, derive
 *                          the verdict-matched patch (wait loop /
 *                          lock guard / lock reorder), and print the
 *                          patch report; --print-ir adds the patched
 *                          module.  See docs/FIXING.md.
 *     --no-interproc       disable §4.3 inter-procedural recovery
 *     --no-optimize        disable the §4.2 optimizer
 *     --print-ir           dump the (possibly transformed) MiniIR
 *     --report             print the ConAir pipeline report
 *     --seed N             scheduler seed (default 1)
 *     --quantum N          preemption quantum (default 50)
 *     --delay HINT:TICKS   stall hint(HINT) for TICKS (repeatable)
 *     --max-steps N        instruction budget
 *     --app NAME           run a bundled bug kernel (FFT, MySQL1, ...)
 *                          under its failure-forcing schedule instead
 *                          of compiling a file; implies --conair
 *     --trace FILE         write a Chrome trace_event JSON of the run
 *                          (load in Perfetto; see docs/OBSERVABILITY.md)
 *     --metrics FILE       write the run's metrics registry JSON
 *     --profile [FILE]     attach the recovery-cost phase profiler
 *                          (passive — the run is tick-identical with
 *                          or without it) and print the hot-phase
 *                          table to stderr; with FILE, also write the
 *                          speedscope JSON there and folded flamegraph
 *                          stacks next to it (.folded extension).
 *                          With --serve, adds a GET /profile endpoint.
 *                          See docs/OBSERVABILITY.md, "Profiling".
 *     --timeline           print the recovery timeline to stderr
 *     --diagnose           run in diagnosis recording mode and print a
 *                          postmortem root-cause report (racy pair,
 *                          interleaving diagram, verdict) to stderr
 *     --serve PORT         after the run, expose its telemetry on
 *                          127.0.0.1:PORT — GET /metrics (Prometheus
 *                          text), /status (run summary JSON),
 *                          /coverage (interleaving-coverage edge dump)
 *                          — then shut down after --serve-seconds.
 *                          PORT 0 binds an ephemeral port (printed to
 *                          stderr).  Implies diagnosis-grade recording.
 *     --serve-seconds N    how long --serve stays up (default 5)
 *
 * Example (examples/data/racy_counter.mc ships with the repo):
 *   minicc --conair --delay 1:5000 examples/data/racy_counter.mc
 *   minicc --app MySQL1 --trace trace.json --timeline
 *   minicc --app ZSNES --diagnose
 *   minicc --app ZSNES --fix --print-ir
 */
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "apps/harness.h"
#include "conair/driver.h"
#include "explore/stages.h"
#include "fix/fix.h"
#include "fix/report.h"
#include "frontend/compile.h"
#include "ir/printer.h"
#include "obs/coverage/coverage.h"
#include "obs/metrics.h"
#include "obs/postmortem/diagnosis.h"
#include "obs/profile/profile_export.h"
#include "obs/serve/http_server.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "support/json.h"
#include "support/str.h"
#include "vm/interp.h"

using namespace conair;

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: minicc [--conair] [--fix [TAG]] [--print-ir] "
                 "[--report]\n"
                 "              [--seed N] [--quantum N] "
                 "[--delay HINT:TICKS]\n"
                 "              [--no-interproc] [--no-optimize] "
                 "[--max-steps N]\n"
                 "              [--trace FILE] [--metrics FILE] "
                 "[--profile [FILE]]\n"
                 "              [--timeline] [--diagnose]\n"
                 "              [--serve PORT [--serve-seconds N]]\n"
                 "              file.mc | --app NAME\n");
}

bool
writeArtifact(const std::string &path, const std::string &content,
              const char *what)
{
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "minicc: cannot write %s %s\n", what,
                     path.c_str());
        return false;
    }
    f << content;
    std::fprintf(stderr, "; wrote %s %s\n", what, path.c_str());
    return true;
}

/**
 * --serve: post-run telemetry exposition.  The run is already done —
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
    auto gauge = [&prom](const char *n, const char *help, uint64_t v) {
        prom += strfmt("# HELP %s %s\n# TYPE %s gauge\n%s %llu\n", n,
                       help, n, n, (unsigned long long)v);
    };
    gauge("conair_run_steps", "Instructions the run executed.",
          run.stats.steps);
    gauge("conair_run_rollbacks", "ConAir rollbacks during the run.",
          run.stats.rollbacks);
    gauge("conair_coverage_distinct_edges",
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
    std::string status = sw.str() + "\n";

    JsonWriter cw(2);
    cw.beginObject();
    cw.key("distinct_edges").value(uint64_t(cov.edges.size()));
    cw.key("digest").value(
        strfmt("%016llx",
               (unsigned long long)obs::cov::coverageDigest(cov.edges)));
    cw.key("edges").beginArray();
    for (const obs::cov::Edge &e : cov.edges) {
        cw.beginObject();
        cw.key("key").value(
            strfmt("%016llx", (unsigned long long)e.key));
        cw.key("kind").value(obs::cov::edgeKindName(e.kind));
        cw.key("from").value(
            strfmt("%016llx", (unsigned long long)e.from));
        cw.key("to").value(strfmt("%016llx", (unsigned long long)e.to));
        cw.endObject();
    }
    cw.endArray();
    cw.endObject();
    std::string coverage = cw.str() + "\n";

    obs::serve::HttpServer server;
    server.route("/metrics", [prom, &server] {
        obs::serve::HttpResponse r;
        r.contentType = "text/plain; version=0.0.4; charset=utf-8";
        // The run's metrics plus the server's own request counters —
        // the telemetry plane monitors itself.
        r.body = prom + server.prometheusCounters();
        return r;
    });
    server.route("/status", [status] {
        obs::serve::HttpResponse r;
        r.contentType = "application/json";
        r.body = status;
        return r;
    });
    server.route("/coverage", [coverage] {
        obs::serve::HttpResponse r;
        r.contentType = "application/json";
        r.body = coverage;
        return r;
    });
    std::string routes = "/metrics /status /coverage";
    if (profile) {
        std::string body =
            obs::prof::speedscopeJson(*profile, name) + "\n";
        server.route("/profile", [body] {
            obs::serve::HttpResponse r;
            r.contentType = "application/json";
            r.body = body;
            return r;
        });
        routes += " /profile";
    }
    std::string err;
    if (port > 65535 || !server.start(uint16_t(port), err)) {
        std::fprintf(stderr, "minicc: --serve: %s\n",
                     port > 65535 ? "port out of range" : err.c_str());
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

/** Folds the run's profiler into @p doc, prints the hot-phase table
 *  to stderr, and (when @p path is set) writes the speedscope JSON
 *  plus folded flamegraph stacks.  False on a write failure. */
bool
emitProfile(const obs::prof::PhaseProfiler &profiler,
            const std::string &name, const std::string &path,
            obs::prof::ProfileDoc &doc)
{
    obs::prof::ProfileAgg agg;
    agg.add(profiler);
    doc.phaseGroups.emplace_back(name, agg);
    std::fprintf(stderr, "%s",
                 obs::prof::hotPhaseTable(doc).c_str());
    if (path.empty())
        return true;
    if (!writeArtifact(path,
                       obs::prof::speedscopeJson(doc, name) + "\n",
                       "profile"))
        return false;
    return writeArtifact(withExtension(path, ".folded"),
                         obs::prof::foldedStacks(doc), "folded stacks");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path, appName, tracePath, metricsPath;
    bool conair = false, print_ir = false, report = false;
    bool timeline = false, diagnose = false, fixSynth = false;
    bool profileOn = false;
    std::string profilePath;
    bool serve = false;
    unsigned servePort = 0, serveSeconds = 5;
    ca::ConAirOptions copts;
    vm::VmConfig cfg;
    cfg.seed = 1;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        // Numeric operands are strict: digits only, no overflow.
        auto number = [&](const std::string &text,
                          uint64_t max = UINT64_MAX) {
            uint64_t v = 0;
            if (!parseU64(text, v) || v > max) {
                std::fprintf(stderr,
                             "minicc: %s: '%s' is not a number in "
                             "[0, %llu]\n",
                             arg.c_str(), text.c_str(),
                             (unsigned long long)max);
                std::exit(2);
            }
            return v;
        };
        if (arg == "--conair") {
            conair = true;
        } else if (arg == "--fix") {
            // "--fix TAG" is ConAir's targeted hardening; a bare
            // "--fix" (next arg absent or a flag) asks for fix
            // *synthesis* — only meaningful with --app.
            if (i + 1 < argc && argv[i + 1][0] != '-') {
                conair = true;
                copts.mode = ca::Mode::Fix;
                copts.fixTags.push_back(next());
            } else {
                fixSynth = true;
            }
        } else if (arg == "--no-interproc") {
            copts.interproc = false;
        } else if (arg == "--no-optimize") {
            copts.optimize = false;
        } else if (arg == "--print-ir") {
            print_ir = true;
        } else if (arg == "--report") {
            report = true;
        } else if (arg == "--seed") {
            cfg.seed = number(next());
        } else if (arg == "--quantum") {
            cfg.quantum = number(next());
        } else if (arg == "--max-steps") {
            cfg.maxSteps = number(next());
        } else if (arg == "--app") {
            appName = next();
        } else if (arg == "--trace") {
            tracePath = next();
        } else if (arg == "--metrics") {
            metricsPath = next();
        } else if (arg == "--profile") {
            // The FILE operand is optional: bare --profile prints the
            // hot-phase table only.
            profileOn = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                profilePath = argv[++i];
        } else if (arg == "--timeline") {
            timeline = true;
        } else if (arg == "--diagnose") {
            diagnose = true;
        } else if (arg == "--serve") {
            serve = true;
            servePort = unsigned(number(next(), UINT_MAX));
        } else if (arg == "--serve-seconds") {
            serveSeconds = unsigned(number(next(), UINT_MAX));
        } else if (arg == "--delay") {
            std::string spec = next();
            size_t colon = spec.find(':');
            if (colon == std::string::npos) {
                usage();
                return 2;
            }
            cfg.delays.push_back(
                {number(spec.substr(0, colon)),
                 number(spec.substr(colon + 1))});
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
            return 2;
        } else {
            path = arg;
        }
    }
    if (path.empty() == appName.empty()) {
        usage();
        return 2;
    }

    // Shared observability hooks for both run paths.  Diagnosis mode
    // needs a deep ring: shared accesses are ~1 event per sched tick.
    // --serve records diagnosis-grade too — shared accesses are the
    // interleaving-coverage sites its /coverage endpoint folds.
    const bool recordShared = diagnose || serve;
    obs::FlightRecorder recorder(recordShared ? 65536 : 8192);
    obs::MetricsRegistry metrics;
    obs::prof::PhaseProfiler profiler;
    obs::prof::ProfileDoc profileDoc;
    const bool observe = !tracePath.empty() || !metricsPath.empty() ||
                         timeline || diagnose || serve || profileOn;

    if (!appName.empty()) {
        // Bundled bug kernel under its failure-forcing schedule, with
        // full survival hardening — the harness path behind Tables 3-7.
        const apps::AppSpec *spec = apps::findApp(appName);
        if (!spec) {
            std::fprintf(stderr, "minicc: unknown app '%s' (have:",
                         appName.c_str());
            for (const apps::AppSpec &a : apps::allApps())
                std::fprintf(stderr, " %s", a.name.c_str());
            std::fprintf(stderr, ")\n");
            return 2;
        }
        if (fixSynth) {
            // Bare --fix: the repair loop's front half — record one
            // scripted failing run, diagnose it postmortem, synthesize
            // the patch.
            apps::CampaignApp capp = apps::prepareCampaignApp(*spec);
            obs::replay::RecordedRun fail;
            if (!apps::probeScriptedFailure(capp, fail)) {
                std::fprintf(stderr,
                             "minicc: %s: scripted buggy schedule "
                             "never failed (seeds 1..8) — nothing to "
                             "fix\n",
                             appName.c_str());
                return 1;
            }
            fix::FixPlan plan = fix::synthesizeFix(
                *capp.plain.module,
                explore::diagnoseRecordedRun(apps::campaignTarget(capp),
                                             fail, "")
                    .report);
            std::printf("%s", fix::renderPatchText(plan).c_str());
            if (print_ir && plan.ok)
                std::printf("%s",
                            ir::printModule(*plan.patched).c_str());
            return plan.ok ? 0 : 1;
        }
        apps::PreparedApp p =
            apps::prepareApp(*spec, apps::HardenOptions{});
        vm::RunResult run =
            apps::runBuggy(p, cfg.seed, observe ? &recorder : nullptr,
                           observe ? &metrics : nullptr, recordShared,
                           profileOn ? &profiler : nullptr);
        std::fputs(run.output.c_str(), stdout);
        std::fprintf(stderr,
                     "; %s: %s, %llu rollback(s), %zu recovery "
                     "episode(s)\n",
                     appName.c_str(), vm::outcomeName(run.outcome),
                     (unsigned long long)run.stats.rollbacks,
                     run.stats.recoveries.size());
        if (timeline)
            std::fprintf(stderr, "%s",
                         obs::recoveryTimeline(recorder).c_str());
        if (diagnose)
            std::fprintf(stderr, "%s",
                         obs::pm::renderText(
                             obs::pm::diagnose(recorder, *p.module,
                                               appName))
                             .c_str());
        if (!tracePath.empty() &&
            !writeArtifact(tracePath,
                           obs::chromeTraceJson(recorder, appName),
                           "trace"))
            return 2;
        if (!metricsPath.empty() &&
            !writeArtifact(metricsPath, metrics.toJson() + "\n",
                           "metrics"))
            return 2;
        if (profileOn &&
            !emitProfile(profiler, appName, profilePath, profileDoc))
            return 2;
        if (serve &&
            serveRunTelemetry(servePort, serveSeconds, appName, run,
                              recorder, metrics,
                              profileOn ? &profileDoc : nullptr) != 0)
            return 2;
        return run.outcome == vm::Outcome::Success
                   ? int(run.exitCode & 0xff)
                   : 1;
    }

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "minicc: cannot open %s\n", path.c_str());
        return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();

    DiagEngine diags;
    fe::CompileOptions fopts;
    fopts.moduleName = path;
    auto module = fe::compileMiniC(buf.str(), diags, fopts);
    if (!module) {
        std::fprintf(stderr, "%s", diags.str().c_str());
        return 1;
    }

    if (conair) {
        ca::ConAirReport r = ca::applyConAir(*module, copts);
        if (report) {
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
    }
    if (print_ir)
        std::printf("%s", ir::printModule(*module).c_str());

    if (observe) {
        cfg.recorder = &recorder;
        cfg.metrics = &metrics;
        cfg.recordSharedAccesses = recordShared;
        if (profileOn)
            cfg.profiler = &profiler;
    }
    vm::RunResult run = vm::runProgram(*module, cfg);
    std::fputs(run.output.c_str(), stdout);
    if (timeline)
        std::fprintf(stderr, "%s",
                     obs::recoveryTimeline(recorder).c_str());
    if (diagnose)
        std::fprintf(stderr, "%s",
                     obs::pm::renderText(
                         obs::pm::diagnose(recorder, *module, path))
                         .c_str());
    if (!tracePath.empty() &&
        !writeArtifact(tracePath, obs::chromeTraceJson(recorder, path),
                       "trace"))
        return 2;
    if (!metricsPath.empty() &&
        !writeArtifact(metricsPath, metrics.toJson() + "\n", "metrics"))
        return 2;
    if (profileOn &&
        !emitProfile(profiler, path, profilePath, profileDoc))
        return 2;
    if (serve && serveRunTelemetry(servePort, serveSeconds, path, run,
                                   recorder, metrics,
                                   profileOn ? &profileDoc : nullptr) !=
                     0)
        return 2;
    if (run.outcome != vm::Outcome::Success) {
        std::fprintf(stderr, "minicc: %s: %s\n",
                     vm::outcomeName(run.outcome),
                     run.failureMsg.c_str());
        return 1;
    }
    if (run.stats.rollbacks) {
        std::fprintf(stderr,
                     "; conair: survived via %llu rollback(s)\n",
                     (unsigned long long)run.stats.rollbacks);
    }
    return int(run.exitCode & 0xff);
}
