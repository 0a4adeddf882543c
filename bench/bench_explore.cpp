/**
 * @file
 * Schedule-exploration campaign over the ten bug kernels: PCT and
 * preemption-bounded search rediscover each kernel's buggy
 * interleaving without the hand-scripted trigger delays, while the
 * differential recovery oracle checks every explored schedule three
 * ways (unhardened fails-or-passes, hardened always recovers,
 * Fused == Reference tick for tick).  See docs/EXPLORATION.md.
 *
 * Results go to stdout and to BENCH_explore.json in the working
 * directory (including per-(kernel, policy) recovery metrics — see
 * docs/OBSERVABILITY.md for the schema).  The exit code is the oracle
 * verdict: nonzero on any engine divergence or unrecovered hardened
 * failure (and, outside smoke mode, on a kernel whose failure was
 * never rediscovered).
 *
 * Flags:
 *   --seeds N     seeds per (policy, depth) entry (default 250; the
 *                 default matrix has 4 entries -> 1000 schedules per
 *                 kernel, 10k per campaign)
 *   --workers N   worker threads (default 4)
 *   --apps a,b    comma-separated kernel subset (default: all ten)
 *   --smoke       CI mode: small seed counts, stop after the first
 *                 failing schedule per kernel, skip the rediscovery
 *                 exit-code gate
 *   --no-speedup  skip the 1-worker vs N-worker speedup measurement
 *   --policies L  comma-separated policy axis, e.g. "pct:d3,pb:d2,random"
 *                 (default: pct:d2,pct:d3,pb:d2,random)
 *   --abort-dir DIR
 *                 campaign mode: flush-on-abort — when the campaign
 *                 oracle trips (divergence / unrecovered), dump the
 *                 instrumented legs' trace and a diagnosis into DIR
 *   --replay-dir DIR
 *                 campaign mode: where the per-kernel minimised
 *                 replay logs go (default: replay-logs)
 *   --serve PORT  campaign mode: serve live telemetry on
 *                 127.0.0.1:PORT for the duration of the run —
 *                 GET /metrics (Prometheus text exposition),
 *                 GET /status (live campaign JSON), GET /coverage
 *                 (interleaving-coverage edge dump).  PORT 0 binds an
 *                 ephemeral port (printed, and written to
 *                 --serve-port-file when given).  Serving is
 *                 observational only; see docs/OBSERVABILITY.md,
 *                 "Live telemetry endpoints".
 *   --serve-port-file FILE
 *                 write the bound telemetry port to FILE (CI uses
 *                 this with --serve 0)
 *   --profile FILE
 *                 print the recovery-cost profile: the top hot-phase
 *                 table over the deterministic per-(kernel, policy)
 *                 phase/episode aggregates, plus the campaign's
 *                 wall-clock self-time cells; write the speedscope
 *                 JSON to FILE and the folded flamegraph stacks next
 *                 to it (FILE with a .folded extension).  The campaign
 *                 always *collects* the profile — kernels[].profile in
 *                 BENCH_explore.json and the full-mode recovery-tax
 *                 gate depend on it — the flag only controls printing
 *                 and export.  See docs/OBSERVABILITY.md, "Profiling".
 *   --guided      campaign mode: run the coverage-guided search pass
 *                 (src/explore/guided.h) after the blind matrix and
 *                 report it as kernels[].guided.  Always on outside
 *                 smoke mode — the committed BENCH_explore.json pins
 *                 the guided-vs-blind seeds-to-first-failure budgets
 *                 and the full-mode gates below compare them.  Guided
 *                 mode also appends the challenge kernels
 *                 (challengeApps()): each gets a dedicated blind
 *                 pct:d2 probe (1000 seeds full / 40 smoke) that must
 *                 come up empty plus the same guided pass, which must
 *                 find the failure within its budget (full-mode gate).
 *                 See docs/EXPLORATION.md, "Guided exploration".
 *   --guided-budget N
 *                 schedules per kernel for the guided pass (default
 *                 250)
 *   --corpus-dir DIR
 *                 persist each kernel's mutation corpus as
 *                 DIR/<kernel>.corpus ("conair-corpus v1" — see
 *                 docs/EXPLORATION.md for the format)
 *
 * Campaign mode runs the blind matrix, then the named stages of
 * explore/stages.h in order: diagnosis, flush-on-abort (--abort-dir),
 * replay corpus (--replay-dir), guided search (--guided), and the fix
 * stage on every kernel whose failure it rediscovered and diagnosed;
 * the per-kernel fix result lands in BENCH_explore.json as
 * kernels[].fix, and outside smoke mode a kernel whose patch fails
 * validation fails the bench.
 *
 * One schedule the campaign found — its trace, metrics, timeline,
 * diagnosis, replay log or fix — is tools/conair.cpp's job: hand the
 * token the summary prints to `conair repro APP TOKEN` or
 * `conair fix APP TOKEN`.
 *
 * An argv entry that is neither a flag above nor that flag's operand,
 * a flag given twice, or a numeric operand that is not plain decimal
 * digits in range is a one-line error with exit status 2.
 */
#include "bench/bench_util.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "explore/campaign.h"
#include "explore/guided.h"
#include "explore/stages.h"
#include "explore/telemetry.h"
#include "fix/validate.h"
#include "obs/postmortem/diagnosis.h"
#include "obs/profile/profile_export.h"
#include "obs/serve/http_server.h"
#include "support/json.h"
#include "support/str.h"

using namespace conair;
using namespace conair::apps;
using namespace conair::bench;
using namespace conair::explore;

namespace {

void
writeMetricsJson(JsonWriter &w, const TargetReport &tr)
{
    w.key("metrics").beginObject();
    for (const auto &[label, reg] : tr.policyMetrics) {
        w.key(label);
        reg.writeJson(w);
    }
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    using enum FlagKind;
    const Args args = benchArgs(
        argc, argv,
        {{"--seeds", Number, UINT_MAX}, {"--workers", Number, UINT_MAX},
         {"--apps", Text}, {"--policies", Text}, {"--smoke"},
         {"--no-speedup"}, {"--abort-dir", Text}, {"--replay-dir", Text},
         {"--serve", Number, 65535}, {"--serve-port-file", Text},
         {"--profile", Text}, {"--guided"},
         {"--guided-budget", Number, UINT_MAX}, {"--corpus-dir", Text}});
    const bool profileOn = args.has("--profile");
    const std::string profilePath = args.text("--profile");

    const bool smoke = args.has("--smoke");
    const bool doSpeedup = !args.has("--no-speedup");
    // Guided search always runs in full mode (the committed artifact
    // pins guided-vs-blind budgets and the gates below compare them);
    // smoke opts in with --guided.
    const bool guided = !smoke || args.has("--guided");
    const uint64_t guidedBudget =
        args.number("--guided-budget", smoke ? 250 : 1500);
    const std::string corpusDir = args.text("--corpus-dir");
    unsigned seeds =
        unsigned(args.number("--seeds", smoke ? 40 : 1250));
    unsigned workers = unsigned(args.number("--workers", 4));
    const bool serve = args.has("--serve");
    const unsigned servePort = unsigned(args.number("--serve", 0));
    const std::string servePortFile =
        args.text("--serve-port-file");

    // Parsed before any kernel is prepared: preparing one runs it.
    const std::string policyList = args.text("--policies");
    std::vector<std::pair<vm::SchedPolicy, uint32_t>> policies;
    for (const std::string &p : split(policyList, ',', true)) {
        ScheduleSpec s;
        std::string err;
        if (!parseScheduleToken(p + ":s1", s, err)) {
            std::fprintf(stderr, "bad policy '%s': %s\n", p.c_str(),
                         err.c_str());
            return 2;
        }
        policies.push_back({s.policy, s.depth});
    }

    std::vector<std::string> names =
        split(args.text("--apps"), ',', /*dropEmpty=*/true);
    const bool explicitApps = !names.empty();
    if (names.empty())
        for (const AppSpec &a : allApps())
            names.push_back(a.name);
    // Challenge kernels never join the Table 2 matrix (its per-kernel
    // gates — rediscovery, recovery tax, fix validation — are about
    // the paper's ten bugs); guided mode runs them through a dedicated
    // probe-plus-guided campaign below.  An explicit --apps list is
    // taken literally.
    std::vector<std::string> challengeNames;
    if (guided && !explicitApps)
        for (const AppSpec &a : challengeApps())
            challengeNames.push_back(a.name);
    auto isChallenge = [&](const std::string &n) {
        for (const std::string &c : challengeNames)
            if (c == n)
                return true;
        return false;
    };

    std::printf("=== schedule-exploration campaign (%s) ===\n\n",
                smoke ? "smoke" : "full");
    std::printf("preparing %zu kernels...\n", names.size());

    std::vector<CampaignApp> prepared;
    std::vector<Target> targets;
    prepared.reserve(names.size());
    for (const std::string &n : names) {
        const AppSpec *spec = findApp(n);
        if (!spec) {
            std::fprintf(stderr, "unknown app '%s'\n", n.c_str());
            return 2;
        }
        prepared.push_back(prepareCampaignApp(*spec));
    }
    for (const CampaignApp &app : prepared)
        targets.push_back(campaignTarget(app));

    CampaignOptions opts;
    opts.seedsPerPolicy = seeds;
    opts.workers = workers;
    opts.collectMetrics = true;
    const std::string abortDir = args.text("--abort-dir");
    // Every rediscovered kernel failure leaves a ddmin-minimised,
    // strictly-verified replay log behind — the O(1) repro corpus.
    const std::string replayDir =
        args.text("--replay-dir", "replay-logs");
    if (!policyList.empty())
        opts.policies = policies;
    if (smoke) {
        // CI cares about the oracle plumbing, not exhaustiveness.
        opts.stopAfterFailures = 1;
        opts.maxSteps = 2'000'000;
    }
    GuidedOptions guidedOpts;
    guidedOpts.budget = guidedBudget;
    // Interleaving coverage is always folded in campaign mode: the
    // kernels[].coverage aggregates below (and the full-mode gate on
    // them) want nonzero distinct-edge counts for every kernel.
    opts.collectCoverage = true;
    // Same for the recovery-cost profile: kernels[].profile and the
    // full-mode recovery-tax gate want it on every run.  --profile
    // only adds printing/export on top.
    opts.collectProfile = true;

    // --serve: embedded telemetry endpoints for the campaign's
    // lifetime.  The telemetry sink is observational only — workers
    // publish into it, readers snapshot out of it, and the
    // deterministic report never touches it.
    CampaignTelemetry telemetry(workers);
    obs::serve::HttpServer server;
    if (serve) {
        const std::string paths = obs::serve::routeTelemetry(
            server, {[&telemetry] { return telemetry.prometheusText(); },
                     [&telemetry] { return telemetry.statusJson(); },
                     [&telemetry] { return telemetry.coverageJson(); },
                     [&telemetry] { return telemetry.profileJson(); }});
        std::string err;
        if (!server.start(uint16_t(servePort), err)) {
            std::fprintf(stderr, "--serve: %s\n", err.c_str());
            return 2;
        }
        std::printf("serving telemetry on 127.0.0.1:%u (%s)\n",
                    unsigned(server.port()), paths.c_str());
        if (!servePortFile.empty() &&
            !writeFile(servePortFile,
                       std::to_string(server.port()) + "\n", nullptr))
            return 2;
        opts.telemetry = &telemetry;
    }

    std::printf("campaign: %zu kernels x %zu policies x %u seeds, "
                "%u workers%s\n\n",
                targets.size(), opts.policies.size(),
                opts.seedsPerPolicy, opts.workers,
                guided ? ", guided pass on" : "");

    // The blind matrix, then the named stages in order
    // (explore/stages.h).  Every first-failing schedule in
    // BENCH_explore.json carries a postmortem diagnosis and, unless
    // --replay-dir is empty, a minimised replay log.
    CampaignReport rep = runCampaign(targets, opts);
    diagnoseStage(targets, opts, rep);
    std::string abortErr;
    if (!abortDir.empty())
        abortErr = abortFlushStage(targets, opts, abortDir, rep);
    if (!replayDir.empty())
        replayCorpusStage(targets, opts, replayDir, rep);
    if (guided)
        guidedStage(targets, opts, guidedOpts, corpusDir, rep);
    std::printf("%s\n", rep.summary().c_str());

    // Fix stage: every kernel whose failure the campaign rediscovered
    // and diagnosed gets a synthesized patch, validated in place
    // (minimized replay + campaign re-run on the patched build +
    // overhead bound).  Results land in kernels[].fix.
    std::printf("\n=== fix synthesis ===\n");
    {
        fix::ValidationOptions vopts;
        vopts.campaign = opts;
        // The validation re-run is a sub-campaign: keep it out of the
        // live /status counters and skip its coverage folds.  Smoke
        // mode trims its seed budget (validatePatch never stops early:
        // it expects zero failures).
        vopts.campaign.telemetry = nullptr;
        vopts.campaign.collectCoverage = false;
        if (smoke)
            vopts.campaign.seedsPerPolicy =
                std::min(opts.seedsPerPolicy, 12u);
        std::vector<vm::VmConfig> cleanConfigs;
        for (const CampaignApp &app : prepared)
            cleanConfigs.push_back(app.spec->cleanConfig);
        std::printf("%s", fix::fixStage(targets, cleanConfigs, vopts, rep)
                              .c_str());
    }

    // Challenge kernels: the explorer's hard mode.  Each one gets a
    // dedicated blind pct:d2 probe — the single-change-point schedule
    // family that structurally cannot trigger a two-window bug — plus
    // the same guided pass as the Table 2 kernels.  The full-mode gate
    // below pins both sides: blind must come up empty over the whole
    // probe budget while guided finds the failure within its own.
    const unsigned probeSeeds = smoke ? 40 : 1000;
    // The challenge bar is fixed: guided must find the two-window
    // failure within 250 schedules, whatever budget the Table 2
    // kernels run with.
    const uint64_t challengeBudget = std::min<uint64_t>(guidedBudget, 250);
    if (!challengeNames.empty()) {
        std::printf("\n=== challenge kernels ===\n");
        std::printf("blind probe pct:d2 x %u seeds + guided budget "
                    "%llu per kernel\n",
                    probeSeeds, (unsigned long long)challengeBudget);
        std::vector<CampaignApp> cprep;
        std::vector<Target> ctargets;
        for (const std::string &n : challengeNames)
            cprep.push_back(prepareCampaignApp(*findApp(n)));
        for (const CampaignApp &app : cprep)
            ctargets.push_back(campaignTarget(app));
        CampaignOptions copts = opts;
        copts.policies = {{vm::SchedPolicy::Pct, 2}};
        copts.seedsPerPolicy = probeSeeds;
        // A probe hit fails the gate anyway — no point finishing the
        // probe, diagnosing the fluke, or minimising a replay for it.
        copts.stopAfterFailures = 1;
        // No failure means no recovery episodes: the recovery-tax
        // gate has nothing to measure here, so don't collect.
        copts.collectProfile = false;
        CampaignReport crep = runCampaign(ctargets, copts);
        if (!abortDir.empty()) {
            std::string err =
                abortFlushStage(ctargets, copts, abortDir, crep);
            if (abortErr.empty())
                abortErr = err;
        }
        GuidedOptions cg = guidedOpts;
        cg.budget = challengeBudget;
        guidedStage(ctargets, copts, cg, corpusDir, crep);
        std::printf("%s\n", crep.summary().c_str());
        rep.divergences += crep.divergences;
        rep.unrecovered += crep.unrecovered;
        for (TargetReport &ctr : crep.targets)
            rep.targets.push_back(std::move(ctr));
    }

    if (guided) {
        std::printf("\n=== guided search ===\n");
        for (const TargetReport &tr : rep.targets) {
            if (!tr.hasGuided)
                continue;
            const GuidedSummary &gs = tr.guided;
            std::printf("%-14s %4llu/%llu schedules  corpus %3llu  "
                        "yield %.3f",
                        tr.name.c_str(),
                        (unsigned long long)gs.schedules,
                        (unsigned long long)gs.budget,
                        (unsigned long long)gs.corpusEntries,
                        gs.mutationYield());
            if (gs.foundFailure)
                std::printf("  found %s @ %llu (blind %llu)",
                            gs.firstFailure.token().c_str(),
                            (unsigned long long)gs.seedsToFirstFailure,
                            (unsigned long long)
                                gs.blindSeedsToFirstFailure);
            else
                std::printf("  no failure");
            std::printf("\n");
        }
    }

    // Parallel speedup: a fixed sub-campaign, 1 worker vs N.  The
    // measurement is honest about the host: with fewer hardware
    // threads than workers (CI containers are often single-core) the
    // workers time-slice one core and the ratio hovers near 1.0, so
    // hw_threads is recorded alongside for interpretation.
    unsigned hw = std::thread::hardware_concurrency();
    double speedup = 0, base_sps = 0, par_sps = 0;
    // The fixed timing sub-campaign this and the serve guard run: no
    // live telemetry, no coverage folds.
    CampaignOptions sopts = opts;
    sopts.seedsPerPolicy = smoke ? 6 : 25;
    sopts.policies = {{vm::SchedPolicy::Pct, 3}};
    sopts.stopAfterFailures = 0;
    sopts.telemetry = nullptr;
    sopts.collectCoverage = false;
    const std::vector<Target> sub(
        targets.begin(), targets.begin() + std::min<size_t>(targets.size(), 2));
    if (doSpeedup) {
        sopts.workers = 1;
        CampaignReport r1 = runCampaign(sub, sopts);
        sopts.workers = workers;
        CampaignReport rn = runCampaign(sub, sopts);
        sopts.workers = opts.workers;
        base_sps = r1.schedulesPerSec;
        par_sps = rn.schedulesPerSec;
        if (base_sps > 0)
            speedup = par_sps / base_sps;
        std::printf("parallel speedup (%u workers vs 1): %.2fx "
                    "(%.1f -> %.1f sched/s, %u hardware threads)\n\n",
                    workers, speedup, base_sps, par_sps, hw);
    }

    // Scrape-pressure guard: the same fixed sub-campaign bare, then
    // with 64 threads hammering /metrics throughout — the workers'
    // schedules/sec should not care (the handlers only read snapshots).
    // Informational, not exit-gated: on an oversubscribed CI box the
    // scrapers and workers time-slice the same cores, so the ratio is
    // recorded (with hw_threads) rather than asserted.
    bool guardRan = false;
    double guard_bare_sps = 0, guard_load_sps = 0, guard_ratio = 0;
    uint64_t guard_scrapes = 0;
    if (serve) {
        CampaignReport bare = runCampaign(sub, sopts);

        std::atomic<bool> stopScrape{false};
        std::atomic<uint64_t> scrapes{0};
        std::vector<std::thread> scrapers;
        scrapers.reserve(64);
        for (int i = 0; i < 64; ++i)
            scrapers.emplace_back([&] {
                while (!stopScrape.load(std::memory_order_relaxed)) {
                    int status = 0;
                    std::string body, err;
                    if (obs::serve::httpGet(server.port(), "/metrics",
                                            status, body, err) &&
                        status == 200)
                        scrapes.fetch_add(1,
                                          std::memory_order_relaxed);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                }
            });
        CampaignReport loaded = runCampaign(sub, sopts);
        stopScrape.store(true);
        for (auto &th : scrapers)
            th.join();

        guardRan = true;
        guard_bare_sps = bare.schedulesPerSec;
        guard_load_sps = loaded.schedulesPerSec;
        guard_scrapes = scrapes.load();
        if (guard_bare_sps > 0)
            guard_ratio = guard_load_sps / guard_bare_sps;
        std::printf("serve guard: %.1f sched/s bare vs %.1f under 64 "
                    "concurrent /metrics scrapers (%.2fx, %llu "
                    "scrapes)\n\n",
                    guard_bare_sps, guard_load_sps, guard_ratio,
                    (unsigned long long)guard_scrapes);
    }

    // Recovery-cost profile rollup: every kernel's per-policy
    // aggregates (matrix order, so worker-count independent) plus the
    // wall-clock cells, and a campaign-wide total.
    obs::prof::ProfileAgg profTotal;
    obs::prof::ProfileDoc profDoc;
    bool profileArtifactsOk = true;
    for (const TargetReport &tr : rep.targets) {
        if (!tr.hasProfile)
            continue;
        profTotal.merge(tr.profile);
        for (const auto &[label, agg] : tr.policyProfiles)
            if (!agg.empty())
                profDoc.phaseGroups.emplace_back(
                    tr.name + "/" + label, agg);
        for (const obs::prof::WallCell &c : tr.wall)
            profDoc.wall.push_back(c);
    }
    if (profileOn) {
        std::printf("\n=== recovery-cost profile ===\n%s",
                    obs::prof::hotPhaseTable(profDoc).c_str());
        profileArtifactsOk = obs::prof::writeProfileArtifacts(
            profDoc, "campaign", profilePath, stdout);
    }

    // BENCH_explore.json.
    JsonWriter w(2);
    w.beginObject();
    w.key("bench").value("explore");
    w.key("mode").value(smoke ? "smoke" : "full");
    w.key("workers").value(workers);
    w.key("hw_threads").value(hw);
    w.key("seeds_per_policy").value(seeds);
    w.key("schedules").value(rep.schedules);
    w.key("vm_runs").value(rep.vmRuns);
    w.key("total_steps").value(rep.totalSteps);
    w.key("seconds").value(rep.seconds, "%.3f");
    w.key("schedules_per_sec").value(rep.schedulesPerSec, "%.1f");
    w.key("divergences").value(rep.divergences);
    w.key("unrecovered").value(rep.unrecovered);
    w.key("speedup").beginObject();
    w.key("workers").value(workers);
    w.key("baseline_sched_per_sec").value(base_sps, "%.1f");
    w.key("parallel_sched_per_sec").value(par_sps, "%.1f");
    w.key("speedup").value(speedup, "%.2f");
    w.endObject();
    if (guardRan) {
        w.key("serve_guard").beginObject();
        w.key("scrapers").value(64);
        w.key("scrapes").value(guard_scrapes);
        w.key("bare_sched_per_sec").value(guard_bare_sps, "%.1f");
        w.key("loaded_sched_per_sec").value(guard_load_sps, "%.1f");
        w.key("ratio").value(guard_ratio, "%.2f");
        w.endObject();
    }
    if (!profTotal.empty()) {
        w.key("profile");
        profTotal.writeJson(w);
    }
    w.key("kernels").beginArray();
    for (const TargetReport &tr : rep.targets) {
        w.beginObject();
        w.key("name").value(tr.name);
        w.key("schedules").value(tr.schedules);
        w.key("skipped").value(tr.skipped);
        w.key("failing_schedules").value(tr.failingSchedules);
        w.key("deadlock_schedules").value(tr.deadlockSchedules);
        w.key("inconclusive").value(tr.inconclusive);
        w.key("distinct_failure_tags")
            .value(uint64_t(tr.failureTags.size()));
        w.key("first_failure")
            .value(tr.foundFailure ? tr.firstFailure.token()
                                   : std::string());
        w.key("first_failure_seed_budget")
            .value(tr.firstFailureSeedBudget);
        w.key("divergences").value(tr.divergences);
        w.key("unrecovered").value(tr.unrecovered);
        w.key("hardened_inconclusive").value(tr.hardenedInconclusive);
        w.key("chaos_runs").value(tr.chaosRuns);
        w.key("chaos_rollbacks").value(tr.chaosRollbacks);
        if (tr.hasCoverage) {
            w.key("coverage").beginObject();
            w.key("distinct_edges").value(tr.coverageDistinctEdges);
            w.key("novel_schedules").value(tr.coverageNovelSchedules);
            w.key("novelty_rate")
                .value(tr.coverageNoveltyRate, "%.4f");
            w.key("edges_at_first_failure")
                .value(tr.coverageEdgesAtFirstFailure);
            w.key("digest").value(
                strfmt("%016llx",
                       (unsigned long long)tr.coverageDigest));
            w.key("growth").beginArray();
            for (const auto &[sched, edges] : tr.coverageGrowth) {
                w.beginArray();
                w.value(sched);
                w.value(edges);
                w.endArray();
            }
            w.endArray();
            w.endObject();
        }
        if (isChallenge(tr.name)) {
            // For a challenge kernel the blind matrix above *is* the
            // probe: pct:d2 only, over probeSeeds seeds.
            w.key("challenge").value(true);
            w.key("blind_probe").beginObject();
            w.key("policy").value("pct:d2");
            w.key("seeds").value(probeSeeds);
            w.key("found").value(tr.foundFailure);
            w.key("schedules").value(tr.schedules);
            w.endObject();
        }
        if (tr.hasGuided) {
            const GuidedSummary &gs = tr.guided;
            w.key("guided").beginObject();
            w.key("budget").value(gs.budget);
            w.key("schedules").value(gs.schedules);
            w.key("fresh_schedules").value(gs.freshSchedules);
            w.key("mutated_schedules").value(gs.mutatedSchedules);
            w.key("fresh_novel").value(gs.freshNovel);
            w.key("mutation_novel").value(gs.mutationNovel);
            w.key("mutation_yield").value(gs.mutationYield(), "%.4f");
            w.key("ops").beginObject();
            for (size_t op = 0; op < kMutOpCount; ++op) {
                w.key(mutOpName(MutOp(op))).beginObject();
                w.key("tried").value(gs.perOp[op]);
                w.key("novel").value(gs.perOpNovel[op]);
                w.endObject();
            }
            w.endObject();
            w.key("corpus_entries").value(gs.corpusEntries);
            w.key("corpus_digest")
                .value(strfmt("%016llx",
                              (unsigned long long)gs.corpusDigest));
            if (!gs.corpusPath.empty())
                w.key("corpus_path").value(gs.corpusPath);
            w.key("found_failure").value(gs.foundFailure);
            w.key("first_failure")
                .value(gs.foundFailure ? gs.firstFailure.token()
                                       : std::string());
            w.key("seeds_to_first_failure")
                .value(gs.seedsToFirstFailure);
            w.key("blind_seeds_to_first_failure")
                .value(gs.blindSeedsToFirstFailure);
            w.key("distinct_edges").value(gs.distinctEdges);
            w.key("coverage_digest")
                .value(strfmt("%016llx",
                              (unsigned long long)gs.coverageDigest));
            w.key("divergences").value(gs.divergences);
            w.key("unrecovered").value(gs.unrecovered);
            if (!gs.error.empty())
                w.key("error").value(gs.error);
            w.endObject();
        }
        if (tr.hasProfile) {
            w.key("profile").beginObject();
            w.key("total");
            tr.profile.writeJson(w);
            w.key("policies").beginObject();
            for (const auto &[label, agg] : tr.policyProfiles) {
                w.key(label);
                agg.writeJson(w);
            }
            w.endObject();
            w.key("wall").beginArray();
            for (const obs::prof::WallCell &c : tr.wall) {
                w.beginObject();
                w.key("policy").value(c.policy);
                w.key("leg").value(c.leg);
                w.key("micros").value(c.micros);
                w.key("spans").value(c.spans);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        writeMetricsJson(w, tr);
        if (tr.hasDiagnosis) {
            w.key("diagnosis_leg").value(tr.diagnosisLeg);
            w.key("diagnosis");
            obs::pm::writeJson(w, tr.diagnosis);
        }
        if (!tr.abortArtifacts.empty()) {
            w.key("abort_artifacts").beginArray();
            for (const std::string &p : tr.abortArtifacts)
                w.value(p);
            w.endArray();
        }
        if (tr.hasReplayLog || !tr.replayError.empty()) {
            w.key("replay_log").beginObject();
            if (tr.hasReplayLog) {
                w.key("path").value(tr.replayLogPath);
                w.key("switches").value(tr.replayOriginalSwitches);
                w.key("minimized_switches")
                    .value(tr.replayMinimizedSwitches);
                w.key("cross_engine_verified")
                    .value(tr.replayCrossEngineVerified);
            }
            if (!tr.replayError.empty())
                w.key("error").value(tr.replayError);
            w.endObject();
        }
        if (tr.fix.attempted) {
            w.key("fix").beginObject();
            w.key("synthesized").value(tr.fix.synthesized);
            w.key("strategy").value(tr.fix.strategy);
            w.key("verdict").value(tr.fix.verdict);
            w.key("variable").value(tr.fix.variable);
            w.key("mutex").value(tr.fix.mutexName);
            w.key("used_existing_mutex")
                .value(tr.fix.usedExistingMutex);
            w.key("edits").value(tr.fix.edits);
            w.key("replay_checked").value(tr.fix.replayChecked);
            w.key("replay_failure_gone")
                .value(tr.fix.replayFailureGone);
            w.key("campaign_ran").value(tr.fix.campaignRan);
            w.key("patched_schedules").value(tr.fix.patchedSchedules);
            w.key("patched_failing").value(tr.fix.patchedFailing);
            w.key("patched_deadlocks").value(tr.fix.patchedDeadlocks);
            w.key("patched_divergences")
                .value(tr.fix.patchedDivergences);
            w.key("patched_inconclusive")
                .value(tr.fix.patchedInconclusive);
            w.key("overhead").value(tr.fix.overhead, "%.4f");
            w.key("overhead_ok").value(tr.fix.overheadOk);
            w.key("validated").value(tr.fix.validated);
            if (!tr.fix.error.empty())
                w.key("error").value(tr.fix.error);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    int rc = writeFile("BENCH_explore.json", w.str() + "\n", stdout) ? 0 : 1;

    // The oracle verdict gates the exit code.
    if (rep.divergences > 0) {
        std::fprintf(stderr, "FAIL: %llu engine divergences\n",
                     (unsigned long long)rep.divergences);
        rc = 1;
    }
    if (rep.unrecovered > 0) {
        std::fprintf(stderr, "FAIL: %llu unrecovered hardened "
                             "failures\n",
                     (unsigned long long)rep.unrecovered);
        rc = 1;
    }
    if (!profileArtifactsOk) {
        std::fprintf(stderr, "FAIL: could not write the profile "
                             "artifacts\n");
        rc = 1;
    }
    if (!abortErr.empty()) {
        std::fprintf(stderr, "FAIL: flush-on-abort: %s\n",
                     abortErr.c_str());
        rc = 1;
    }
    if (!replayDir.empty()) {
        for (const TargetReport &tr : rep.targets) {
            if (tr.foundFailure && !tr.hasReplayLog) {
                std::fprintf(stderr,
                             "FAIL: %s: no replay log for first "
                             "failure (%s)\n",
                             tr.name.c_str(), tr.replayError.c_str());
                rc = 1;
            }
            if (tr.hasReplayLog && !tr.replayCrossEngineVerified) {
                std::fprintf(stderr,
                             "FAIL: %s: replay log did not verify "
                             "under the Reference engine\n",
                             tr.name.c_str());
                rc = 1;
            }
        }
    }
    // Corpus persistence is an artifact obligation like the profile
    // export: asking for --corpus-dir and not getting the files is a
    // failure in any mode.
    if (!corpusDir.empty()) {
        for (const TargetReport &tr : rep.targets)
            if (tr.hasGuided && !tr.guided.error.empty()) {
                std::fprintf(stderr,
                             "FAIL: %s: corpus not persisted (%s)\n",
                             tr.name.c_str(),
                             tr.guided.error.c_str());
                rc = 1;
            }
    }
    if (!smoke) {
        // Challenge kernels are exempt: their blind leg is a probe
        // that is *supposed* to come up empty (gated the other way
        // below).
        for (const TargetReport &tr : rep.targets)
            if (!tr.foundFailure && !isChallenge(tr.name)) {
                std::fprintf(stderr,
                             "FAIL: %s: no failing schedule found\n",
                             tr.name.c_str());
                rc = 1;
            }
        // Every kernel's schedules must have exercised at least one
        // interleaving edge — an all-zero map means the coverage
        // plumbing broke, not that the kernel is boring.
        for (const TargetReport &tr : rep.targets)
            if (tr.hasCoverage && tr.coverageDistinctEdges == 0) {
                std::fprintf(stderr,
                             "FAIL: %s: zero distinct coverage "
                             "edges\n",
                             tr.name.c_str());
                rc = 1;
            }
        // Recovery-tax gate: every kernel's profiled hardened legs
        // must have paid a measurable recovery tax — recovery means
        // rollback means re-execution, so zero episodes or zero
        // re-executed steps says the phase tally lost the recovery
        // story, not that recovery was free.
        for (const TargetReport &tr : rep.targets)
            if (tr.hasProfile && (tr.profile.episodes == 0 ||
                                  tr.profile.reexecSteps == 0)) {
                std::fprintf(
                    stderr,
                    "FAIL: %s: zero recovery tax in the profile "
                    "(%llu episodes, %llu reexec steps over %llu "
                    "profiled runs)\n",
                    tr.name.c_str(),
                    (unsigned long long)tr.profile.episodes,
                    (unsigned long long)tr.profile.reexecSteps,
                    (unsigned long long)tr.profile.runs);
                rc = 1;
            }
        // Close-the-loop gate: every rediscovered failure must end in
        // a synthesized, fully validated patch.
        for (const TargetReport &tr : rep.targets)
            if (tr.fix.attempted && !tr.fix.validated) {
                std::fprintf(stderr,
                             "FAIL: %s: fix not validated (%s)\n",
                             tr.name.c_str(), tr.fix.error.c_str());
                rc = 1;
            }
        if (guided) {
            // Guided efficiency gate over the Table 2 kernels: every
            // failure rediscovered, and the mean seeds-to-first-
            // failure at most half the blind matrix's (integer form:
            // 2 * sum(guided) <= sum(blind), same kernel count on
            // both sides).
            uint64_t blindSum = 0, guidedSum = 0, nGated = 0;
            bool gateable = true;
            for (const TargetReport &tr : rep.targets) {
                if (!tr.hasGuided || isChallenge(tr.name))
                    continue;
                if (!tr.guided.foundFailure) {
                    std::fprintf(stderr,
                                 "FAIL: %s: guided search found no "
                                 "failing schedule within %llu\n",
                                 tr.name.c_str(),
                                 (unsigned long long)tr.guided.budget);
                    rc = 1;
                    gateable = false;
                    continue;
                }
                blindSum += tr.guided.blindSeedsToFirstFailure;
                guidedSum += tr.guided.seedsToFirstFailure;
                ++nGated;
            }
            if (gateable && nGated > 0) {
                double gMean = double(guidedSum) / double(nGated);
                double bMean = double(blindSum) / double(nGated);
                if (2 * guidedSum > blindSum) {
                    std::fprintf(stderr,
                                 "FAIL: guided mean seeds-to-first-"
                                 "failure %.1f exceeds 0.5x the blind "
                                 "mean %.1f\n",
                                 gMean, bMean);
                    rc = 1;
                } else {
                    std::printf("guided efficiency: mean %.1f vs "
                                "blind %.1f seeds-to-first-failure "
                                "(<= 0.5x: ok)\n",
                                gMean, bMean);
                }
            }
            // Challenge gates: blind probe empty, guided finds it.
            for (const TargetReport &tr : rep.targets) {
                if (!isChallenge(tr.name))
                    continue;
                if (tr.foundFailure) {
                    std::fprintf(stderr,
                                 "FAIL: %s: the blind pct:d2 probe "
                                 "found the failure (%s, seed budget "
                                 "%llu) — the kernel no longer needs "
                                 "guidance\n",
                                 tr.name.c_str(),
                                 tr.firstFailure.token().c_str(),
                                 (unsigned long long)
                                     tr.firstFailureSeedBudget);
                    rc = 1;
                }
                if (!tr.hasGuided || !tr.guided.foundFailure) {
                    std::fprintf(stderr,
                                 "FAIL: %s: guided search missed the "
                                 "challenge failure within %llu "
                                 "schedules\n",
                                 tr.name.c_str(),
                                 (unsigned long long)challengeBudget);
                    rc = 1;
                }
            }
        }
    }
    if (serve) {
        std::printf("telemetry server: %llu requests served, %llu "
                    "bad\n",
                    (unsigned long long)server.requestsServed(),
                    (unsigned long long)server.badRequests());
        server.stop();
    }
    return rc;
}
