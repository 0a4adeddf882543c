/**
 * @file
 * The campaign workload: the blind exploration matrix bench_explore
 * runs — the ten Table 2 kernels x {pct:d2, pct:d3, pb:d2, random} x
 * seeds 1..50 per pass, Reference differential on, chaos on even
 * seeds, metrics, coverage and profile collection on, no diagnosis,
 * replay, guided pass or stop-after-failure.  Op = one schedule.
 *
 * The untraced run times explore::runCampaign passes.  The traced run
 * drives the same jobs through explore::runOneSchedule from a pool of
 * the same size (legs run inside that call, so their times come from
 * ScheduleOutcome's wall fields), alternating untraced and traced
 * passes, then re-issues a deterministic sample of legs through the VM
 * probe.
 */
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "obs/metrics.h"
#include "perfbench/bench.h"

namespace perfbench {

using namespace conair;

namespace {

/** Seeds per policy entry: 10 x 4 x 50 = 2000 schedules per pass. */
constexpr unsigned kSeeds = 50;

/** The traced run probes every kProbeEvery-th job of the matrix. */
constexpr size_t kProbeEvery = 25;

/** runCampaign's wall-cell legs, in runOneSchedule order. */
const char *const kLegs[4] = {"unhardened", "differential", "hardened",
                              "hardened_diff"};

explore::CampaignOptions
campaignOptions(unsigned workers)
{
    explore::CampaignOptions o;
    o.seedsPerPolicy = kSeeds;
    o.workers = workers;
    o.collectMetrics = true;
    o.collectCoverage = true;
    o.collectProfile = true;
    return o;
}

struct Job
{
    size_t target;
    explore::ScheduleSpec spec;
};

/** runCampaign's job order: target, then policy entry, then seed. */
std::vector<Job>
matrix(size_t targets, const explore::CampaignOptions &o)
{
    std::vector<Job> jobs;
    for (size_t t = 0; t < targets; ++t)
        for (const auto &[policy, depth] : o.policies)
            for (uint64_t seed = 1; seed <= o.seedsPerPolicy; ++seed) {
                explore::ScheduleSpec spec;
                spec.policy = policy;
                spec.seed = seed;
                spec.depth = depth;
                jobs.push_back({t, spec});
            }
    return jobs;
}

double
recoveryP50(const obs::MetricsRegistry &reg)
{
    const obs::Histogram *h = reg.histogram("recovery_latency_us");
    return h ? h->p50() : 0;
}

/** The deterministic aggregates of one matrix pass, defined as
 *  runCampaign aggregates them. */
struct PassCounts
{
    uint64_t schedules = 0;
    uint64_t steps = 0; ///< unhardened Decoded legs
    uint64_t vmRuns = 0;
    uint64_t failing = 0;
    uint64_t inconclusive = 0;
    uint64_t divergences = 0;
    uint64_t unrecovered = 0;
    uint64_t edges = 0; ///< distinct coverage edges, summed over kernels
    uint64_t kernelsFailing = 0;
    uint64_t firstFailureOrdinals = 0;
    double recoveryVusP50 = 0;

    bool operator==(const PassCounts &) const = default;

    double
    schedulesToFailure() const
    {
        return kernelsFailing
                   ? double(firstFailureOrdinals) / double(kernelsFailing)
                   : 0;
    }

    void
    addTo(Report &rep) const
    {
        rep.counts["campaign.schedules"] = double(schedules);
        rep.counts["vm.steps"] = double(steps);
        rep.counts["explore.vm_runs"] = double(vmRuns);
        rep.counts["explore.failures_found"] = double(failing);
        rep.counts["explore.inconclusive"] = double(inconclusive);
        rep.counts["explore.divergences"] = double(divergences);
        rep.counts["explore.unrecovered"] = double(unrecovered);
        rep.counts["explore.coverage_edges"] = double(edges);
        rep.counts["explore.kernels_failing"] = double(kernelsFailing);
        rep.counts["explore.schedules_to_failure"] = schedulesToFailure();
        rep.counts["recovery_vus_p50"] = recoveryVusP50;
    }
};

PassCounts
countsOf(const explore::CampaignReport &r)
{
    PassCounts c;
    c.schedules = r.schedules;
    c.steps = r.totalSteps;
    c.vmRuns = r.vmRuns;
    c.divergences = r.divergences;
    c.unrecovered = r.unrecovered;
    obs::MetricsRegistry all;
    for (const explore::TargetReport &tr : r.targets) {
        c.failing += tr.failingSchedules;
        c.inconclusive += tr.inconclusive;
        c.edges += tr.coverageDistinctEdges;
        if (tr.foundFailure) {
            ++c.kernelsFailing;
            c.firstFailureOrdinals += tr.firstFailureScheduleOrdinal;
        }
        for (const auto &[label, reg] : tr.policyMetrics)
            all.merge(reg);
    }
    c.recoveryVusP50 = recoveryP50(all);
    return c;
}

PassCounts
countsOf(const std::vector<Job> &jobs,
         const std::vector<explore::ScheduleOutcome> &results,
         const std::vector<explore::Target> &targets,
         const explore::CampaignOptions &opts)
{
    PassCounts c;
    std::vector<std::set<uint64_t>> keys(targets.size());
    std::vector<uint64_t> ran(targets.size(), 0);
    std::vector<bool> found(targets.size(), false);
    obs::MetricsRegistry all;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const size_t t = jobs[i].target;
        const explore::ScheduleOutcome &o = results[i];
        ++c.schedules;
        ++ran[t];
        c.steps += o.steps;
        c.vmRuns += 1 + (opts.differential ? 1 : 0);
        for (const obs::cov::Edge &e : o.coverage)
            keys[t].insert(e.key);
        if (o.unhardenedInconclusive) {
            ++c.inconclusive;
        } else if (!o.unhardenedCorrect) {
            ++c.failing;
            if (!found[t]) {
                found[t] = true;
                ++c.kernelsFailing;
                c.firstFailureOrdinals += ran[t];
            }
        }
        c.divergences += o.diverged;
        if (o.hardenedRan) {
            c.vmRuns +=
                1 + (opts.differential && !o.chaos && !o.diverged ? 1 : 0);
            all.merge(o.metrics);
            if (!o.hardenedInconclusive && !o.hardenedCorrect &&
                targets[t].mustRecover)
                ++c.unrecovered;
        }
    }
    for (const auto &k : keys)
        c.edges += k.size();
    c.recoveryVusP50 = recoveryP50(all);
    return c;
}

/** The checks shared by both modes: the oracles hold, and every pass
 *  repeats the first pass's deterministic counts. */
void
checkPasses(const std::vector<PassCounts> &passes, Report &rep)
{
    for (size_t i = 0; i < passes.size(); ++i) {
        const PassCounts &p = passes[i];
        rep.attempted += p.schedules;
        if (p.divergences)
            rep.fail("campaign: Decoded/Reference divergence",
                     p.divergences);
        if (p.unrecovered)
            rep.fail("campaign: unrecovered hardened failure",
                     p.unrecovered);
        if (!(p == passes[0]))
            rep.fail("campaign pass " + std::to_string(i + 1) +
                     ": deterministic counts differ from pass 1");
    }
    passes.front().addTo(rep);
}

void
runUntraced(const Settings &s, const std::vector<explore::Target> &targets,
            const std::function<void()> &between, Report &rep)
{
    const explore::CampaignOptions opts = campaignOptions(s.workers);
    std::vector<PassCounts> passes;
    std::vector<double> meanMs;
    // Library leg timers, summed over passes per (kernel, policy) cell.
    std::map<std::pair<std::string, std::string>,
             std::array<std::pair<double, uint64_t>, 4>>
        cells;
    auto runPass = [&](unsigned) {
        explore::CampaignReport r = explore::runCampaign(targets, opts);
        passes.push_back(countsOf(r));
        double passUs = 0;
        for (const explore::TargetReport &tr : r.targets)
            for (const obs::prof::WallCell &c : tr.wall)
                for (int leg = 0; leg < 4; ++leg)
                    if (c.leg == kLegs[leg]) {
                        auto &acc = cells[{c.kernel, c.policy}][leg];
                        acc.first += double(c.micros);
                        acc.second += c.spans;
                        passUs += double(c.micros);
                    }
        meanMs.push_back(passUs / 1000.0 / double(r.schedules));
    };
    const std::vector<double> times =
        runPasses(s.seconds, rep, runPass, between);
    checkPasses(passes, rep);

    std::vector<double> cellMs;
    std::map<std::string, std::array<std::pair<double, uint64_t>, 4>>
        kernels;
    for (const auto &[key, legs] : cells) {
        double us = 0;
        for (int leg = 0; leg < 4; ++leg) {
            us += legs[leg].first;
            kernels[key.first][leg].first += legs[leg].first;
            kernels[key.first][leg].second += legs[leg].second;
        }
        if (legs[0].second)
            cellMs.push_back(us / double(legs[0].second) / 1000.0);
    }
    std::vector<double> ratios;
    for (const auto &[kernel, legs] : kernels)
        if (legs[0].second && legs[2].second && legs[0].first > 0)
            ratios.push_back((legs[2].first / double(legs[2].second)) /
                             (legs[0].first / double(legs[0].second)));

    // runCampaign reports no per-schedule latency, only the summed leg
    // timers per (kernel, policy) cell: the median is taken over passes
    // of the mean schedule latency, the tail over the cells' means.
    const double tail = tailQuantile(cellMs.size());
    rep.metric("ops_per_s", double(rep.attempted) / sum(times), "op/s");
    rep.metric("op_ms_p50", median(meanMs), "ms");
    rep.info["op_ms_p50"] = "median over passes of the mean schedule "
                            "latency (summed leg timers / schedules)";
    rep.metric("op_ms_tail", quantile(cellMs, tail), "ms");
    rep.info["op_ms_tail"] =
        percentileLabel(tail) + " of " + std::to_string(cellMs.size()) +
        " (kernel, policy) cells of mean schedule latency";
    rep.metric("hardened_overhead", geomean(ratios), "ratio");
    rep.info["hardened_overhead"] =
        "geomean over kernels of mean hardened-leg / mean "
        "unhardened-leg wall time";
    rep.metric("recovery_vus_p50", passes.front().recoveryVusP50, "vus");
}

void
runTraced(const Settings &s, const std::vector<Kernel> &kernels,
          const std::vector<explore::Target> &targets, SpanLog &setupLog,
          std::atomic<uint64_t> &ids, const std::function<void()> &between,
          Report &rep)
{
    const explore::CampaignOptions opts = campaignOptions(s.workers);
    const std::vector<Job> jobs = matrix(targets.size(), opts);
    std::vector<std::unique_ptr<SpanLog>> logs;
    for (unsigned w = 0; w < s.workers; ++w)
        logs.push_back(std::make_unique<SpanLog>(ids));

    std::vector<explore::ScheduleOutcome> results(jobs.size());
    std::vector<PassCounts> passes;
    double legUs[4] = {};
    uint64_t tracedSchedules = 0, opBase = 0;
    auto runPass = [&](unsigned pass) {
        const bool traced = pass % 2 == 1;
        for (auto &log : logs)
            log->enabled = traced;
        std::atomic<size_t> next{0};
        auto work = [&](unsigned w) {
            SpanLog &log = *logs[w];
            for (;;) {
                size_t i = next.fetch_add(1, std::memory_order_relaxed);
                if (i >= jobs.size())
                    return;
                const uint64_t op = opBase + i + 1;
                auto opSpan = log.open("bench", "op.schedule", op);
                uint64_t callId = 0;
                explore::ScheduleOutcome o;
                {
                    auto call =
                        log.open("explore", "explore::runOneSchedule", op);
                    callId = call.id();
                    o = explore::runOneSchedule(targets[jobs[i].target],
                                                jobs[i].spec, opts);
                }
                log.derived("vm", "leg.unhardened", op, callId,
                            double(o.wallUnhardenedUs));
                log.derived("vm", "leg.reference", op, callId,
                            double(o.wallDifferentialUs));
                log.derived("vm", "leg.hardened", op, callId,
                            double(o.wallHardenedUs));
                log.derived("vm", "leg.hardened_reference", op, callId,
                            double(o.wallHardenedDiffUs));
                results[i] = std::move(o);
            }
        };
        std::vector<std::thread> pool;
        for (unsigned w = 0; w < s.workers; ++w)
            pool.emplace_back(work, w);
        for (std::thread &t : pool)
            t.join();
        passes.push_back(countsOf(jobs, results, targets, opts));
        if (traced) {
            for (const explore::ScheduleOutcome &o : results) {
                legUs[0] += double(o.wallUnhardenedUs);
                legUs[1] += double(o.wallDifferentialUs);
                legUs[2] += double(o.wallHardenedUs);
                legUs[3] += double(o.wallHardenedDiffUs);
            }
            tracedSchedules += results.size();
        }
        opBase += jobs.size();
    };
    const std::vector<double> times =
        runPasses(s.seconds, rep, runPass, between);
    checkPasses(passes, rep);

    std::vector<Span> spans = setupLog.spans;
    for (const auto &log : logs)
        spans.insert(spans.end(), log->spans.begin(), log->spans.end());
    if (!writeSpans(s.outDir + "/spans-campaign.jsonl", spans))
        rep.fail("could not write the span file");

    BuildCounts::of(kernels).emit(spans, rep);

    const std::vector<double> callMs =
        spanMs(spans, "explore::runOneSchedule");
    const double n = double(std::max<uint64_t>(tracedSchedules, 1));
    double callSum = 0, legSum = 0;
    for (double ms : callMs)
        callSum += ms;
    for (double us : legUs)
        legSum += us / 1000.0;
    const PassCounts &pc = passes.front();
    rep.metric("explore.schedule_ms_p50", quantile(callMs, 0.5), "ms");
    rep.metric("explore.schedule_ms_p99", quantile(callMs, 0.99), "ms");
    rep.metric("explore.leg_unhardened_ms", legUs[0] / 1000.0 / n, "ms");
    rep.metric("explore.leg_reference_ms", legUs[1] / 1000.0 / n, "ms");
    rep.metric("explore.leg_hardened_ms", legUs[2] / 1000.0 / n, "ms");
    rep.metric("explore.leg_hardened_reference_ms",
               legUs[3] / 1000.0 / n, "ms");
    rep.metric("explore.self_ms", (callSum - legSum) / n, "ms");
    rep.metric("explore.oracle_share",
               legSum > 0 ? (legUs[1] + legUs[3]) / 1000.0 / legSum : 0,
               "ratio");
    rep.metric("explore.vm_runs_per_schedule",
               double(pc.vmRuns) / double(pc.schedules), "ratio");
    rep.metric("explore.inconclusive", double(pc.inconclusive), "count");
    rep.metric("explore.failures_found", double(pc.failing), "count");
    rep.metric("explore.schedules_to_failure", pc.schedulesToFailure(),
               "count");
    rep.metric("explore.coverage_edges", double(pc.edges), "count");
    rep.metric("vm.steps", double(pc.steps), "count");

    VmProbe probe;
    for (size_t i = 0; i < jobs.size(); i += kProbeEvery) {
        const explore::Target &t = targets[jobs[i].target];
        vm::VmConfig base;
        jobs[i].spec.applyTo(base);
        base.pctHorizon = t.horizon;
        base.quantum = t.quantum;
        base.maxSteps = opts.maxSteps;
        base.maxRetries = opts.maxRetries;
        probe.run(*t.plain, base, false, rep);
        vm::VmConfig hard = base;
        if (opts.chaosEveryN > 0 && jobs[i].spec.seed % 2 == 0)
            hard.chaosRollbackEveryN = opts.chaosEveryN;
        probe.run(*t.hardened, hard, true, rep);
    }
    probe.emit(rep);
    rep.metric("vm.overhead_steps", probe.overheadSteps(), "ratio");

    emitSelfTimeSplit(spans, rep);
    emitTraceOverhead(times, rep);
}

} // namespace

void
runCampaignWorkload(const Settings &s, Report &rep)
{
    std::atomic<uint64_t> ids{0};
    SpanLog setupLog(ids), quiet(ids);
    setupLog.enabled = s.trace;
    std::vector<double> setupTimes;
    std::vector<Kernel> kernels = setUpKernels(setupLog, setupTimes);
    BuildCounts::of(kernels).addCounts(rep);
    // Set-up repeats twice after every pass, so that setup_s is a median
    // over the whole run rather than over one moment of it.
    auto setUpAgain = [&] {
        for (int r = 0; r < 2; ++r)
            setUpKernels(quiet, setupTimes);
    };
    std::vector<explore::Target> targets;
    for (const Kernel &k : kernels)
        targets.push_back(k.target);
    rep.info["pass"] = std::to_string(targets.size()) +
                       " kernels x 4 policies x " + std::to_string(kSeeds) +
                       " seeds";
    if (s.trace)
        runTraced(s, kernels, targets, setupLog, ids, setUpAgain, rep);
    else
        runUntraced(s, targets, setUpAgain, rep);
    rep.metric("setup_s", median(setupTimes), "s");
}

} // namespace perfbench
