#include "explore/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <thread>

#include "explore/telemetry.h"
#include "ir/module.h"
#include "obs/trace.h"
#include "support/str.h"
#include "vm/interp.h"

namespace conair::explore {

//
// ScheduleSpec.
//

void
ScheduleSpec::applyTo(vm::VmConfig &cfg) const
{
    cfg.policy = policy;
    cfg.seed = seed;
    cfg.schedPoints = points;
    if (policy == vm::SchedPolicy::Pct)
        cfg.pctDepth = std::max<uint32_t>(depth, 1);
    else if (policy == vm::SchedPolicy::PreemptBound)
        cfg.preemptBound = depth;
}

std::string
ScheduleSpec::token() const
{
    const char *name = vm::schedPolicyName(policy);
    if (policy == vm::SchedPolicy::Pct ||
        policy == vm::SchedPolicy::PreemptBound) {
        std::string t = strfmt("%s:d%u:s%llu", name, depth,
                               (unsigned long long)seed);
        if (!points.empty()) {
            t += ":c";
            for (size_t i = 0; i < points.size(); ++i)
                t += strfmt("%s%llu", i ? "," : "",
                            (unsigned long long)points[i]);
        }
        return t;
    }
    return strfmt("%s:s%llu", name, (unsigned long long)seed);
}

bool
parseScheduleToken(const std::string &tok, ScheduleSpec &out,
                   std::string &err)
{
    auto fail = [&](const std::string &what) {
        err = "bad schedule token '" + tok + "': " + what;
        return false;
    };

    std::vector<std::string> parts = split(tok, ':');

    ScheduleSpec s;
    if (!vm::schedPolicyFromName(parts[0], s.policy))
        return fail("unknown policy '" + parts[0] +
                    "' (want rr, random, pct, or pb)");

    s.depth = 0;
    bool sawSeed = false, sawDepth = false, sawPoints = false;
    for (size_t next = 1; next < parts.size(); ++next) {
        const std::string &p = parts[next];
        if (p.size() < 2 || (p[0] != 'd' && p[0] != 's' && p[0] != 'c'))
            return fail("field '" + p + "' is not dN, sN, or cN,N");
        if (p[0] == 'c') {
            if (sawPoints)
                return fail("duplicate points field '" + p + "'");
            if (s.policy != vm::SchedPolicy::Pct &&
                s.policy != vm::SchedPolicy::PreemptBound)
                return fail(
                    std::string(vm::schedPolicyName(s.policy)) +
                    " does not take explicit change points (c field)");
            // Empty items ("c1,,2") are kept so they fail in parseU64
            // instead of being skipped.
            std::vector<uint64_t> pts;
            for (const std::string &item : split(p.substr(1), ',')) {
                uint64_t v;
                if (!parseU64(item, v) || v == 0)
                    return fail("change point '" + item +
                                "' is not a valid tick (digits only, "
                                ">= 1, no overflow)");
                if (!pts.empty() && v <= pts.back())
                    return fail("change points not strictly "
                                "increasing at '" + item + "'");
                pts.push_back(v);
            }
            s.points = std::move(pts);
            sawPoints = true;
            continue;
        }
        uint64_t v;
        if (!parseU64(p.substr(1), v))
            return fail("field '" + p +
                        "' is not a valid number (digits only, no "
                        "overflow)");
        if (p[0] == 'd') {
            if (sawDepth)
                return fail("duplicate depth field '" + p + "'");
            if (v > UINT32_MAX)
                return fail("depth " + p.substr(1) + " out of range");
            s.depth = uint32_t(v);
            sawDepth = true;
        } else {
            if (sawSeed)
                return fail("duplicate seed field '" + p + "'");
            s.seed = v;
            sawSeed = true;
        }
    }
    if (!sawSeed)
        return fail("missing seed field sN");
    if ((s.policy == vm::SchedPolicy::Pct ||
         s.policy == vm::SchedPolicy::PreemptBound) &&
        s.depth == 0)
        return fail(std::string(vm::schedPolicyName(s.policy)) +
                    " needs a depth field dN >= 1");
    out = s;
    err.clear();
    return true;
}

bool
parseScheduleToken(const std::string &tok, ScheduleSpec &out)
{
    std::string err;
    return parseScheduleToken(tok, out, err);
}

std::string
reproCommand(const std::string &app, const ScheduleSpec &s)
{
    return "./build/tools/conair repro " + app + " " + s.token();
}

std::string
policyLabel(vm::SchedPolicy policy, uint32_t depth)
{
    const char *name = vm::schedPolicyName(policy);
    if (policy == vm::SchedPolicy::Pct ||
        policy == vm::SchedPolicy::PreemptBound)
        return strfmt("%s:d%u", name, depth);
    return name;
}

//
// One schedule, all legs.
//

namespace {

bool
correctRun(const Target &t, const vm::RunResult &r)
{
    if (r.outcome != vm::Outcome::Success)
        return false;
    if (!t.checkOutput)
        return true;
    return r.output == t.expectedOutput && r.exitCode == t.expectedExit;
}

/** Oracle 3: the two engines must agree on every observable of the
 *  run, down to the virtual clock tick. */
std::string
tickDiff(const vm::RunResult &a, const vm::RunResult &b)
{
    if (a.outcome != b.outcome)
        return strfmt("outcome %s vs %s", vm::outcomeName(a.outcome),
                      vm::outcomeName(b.outcome));
    if (a.clock != b.clock)
        return strfmt("clock %llu vs %llu",
                      (unsigned long long)a.clock,
                      (unsigned long long)b.clock);
    if (a.stats.steps != b.stats.steps)
        return strfmt("steps %llu vs %llu",
                      (unsigned long long)a.stats.steps,
                      (unsigned long long)b.stats.steps);
    if (a.output != b.output)
        return "output differs";
    if (a.exitCode != b.exitCode)
        return strfmt("exit %lld vs %lld", (long long)a.exitCode,
                      (long long)b.exitCode);
    if (a.failureTag != b.failureTag)
        return "failure tag differs";
    if (a.memDigest != b.memDigest)
        return "final memory digest differs";
    return {};
}

} // namespace

vm::VmConfig
makeBaseConfig(const Target &t, const ScheduleSpec &s,
               const CampaignOptions &opts)
{
    vm::VmConfig base;
    s.applyTo(base);
    base.pctHorizon = t.horizon;
    base.quantum = t.quantum;
    base.maxSteps = opts.maxSteps;
    base.maxRetries = opts.maxRetries;
    // No DelayRules: the campaign's whole point is finding the buggy
    // interleavings without the hand-scripted trigger sleeps.
    return base;
}

uint64_t
calibrateHorizon(const ir::Module &m, uint64_t maxSteps)
{
    vm::VmConfig cfg;
    cfg.policy = vm::SchedPolicy::RoundRobin;
    cfg.quantum = 1'000;
    cfg.maxSteps = maxSteps;
    vm::RunResult r = vm::runProgram(m, cfg);
    return std::max<uint64_t>(r.stats.schedTicks, 64);
}

ScheduleOutcome
runOneSchedule(const Target &t, const ScheduleSpec &s,
               const CampaignOptions &opts,
               const ScheduleInstruments *ins)
{
    ScheduleOutcome out;
    out.spec = s;
    out.ran = true;

    // Wall-clock leg spans (profiling only): pure observation of this
    // process, never fed back into any deterministic field.
    using WallClock = std::chrono::steady_clock;
    WallClock::time_point legStart;
    auto legBegin = [&] {
        if (opts.collectProfile)
            legStart = WallClock::now();
    };
    auto legEnd = [&](uint64_t &us) {
        if (opts.collectProfile)
            us += uint64_t(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    WallClock::now() - legStart)
                    .count());
    };

    vm::VmConfig base = makeBaseConfig(t, s, opts);

    vm::VmConfig plainCfg = base;
    if (ins) {
        plainCfg.recorder = ins->unhardened;
        plainCfg.recordSharedAccesses = ins->recordSharedAccesses;
    }
    // Coverage rides on a private ring recorder when the caller didn't
    // attach one of its own, in diagnosis recording mode: shared
    // loads/stores are the interleaving sites (lock-free kernels emit
    // nothing else between switches).  The Reference replicas below
    // run bare either way, so their tick identity against this leg
    // keeps proving — on every single schedule — that recording (and
    // hence coverage collection) is passive.
    std::optional<obs::FlightRecorder> covRec;
    if (opts.collectCoverage && !plainCfg.recorder) {
        covRec.emplace(8192);
        plainCfg.recorder = &*covRec;
        plainCfg.recordSharedAccesses = true;
    }
    legBegin();
    vm::RunResult u = vm::runProgram(*t.plain, plainCfg);
    legEnd(out.wallUnhardenedUs);
    if (opts.collectCoverage && plainCfg.recorder)
        out.coverage =
            obs::cov::foldCoverage(*plainCfg.recorder).edges;
    out.unhardened = u.outcome;
    out.unhardenedCorrect = correctRun(t, u);
    out.unhardenedInconclusive = u.outcome == vm::Outcome::Timeout;
    out.unhardenedTag = u.failureTag;
    out.steps = u.stats.steps;

    if (opts.differential) {
        vm::VmConfig refCfg = base;
        refCfg.engine = vm::ExecEngine::Reference;
        legBegin();
        vm::RunResult r = vm::runProgram(*t.plain, refCfg);
        legEnd(out.wallDifferentialUs);
        std::string d = tickDiff(u, r);
        if (!d.empty()) {
            out.diverged = true;
            out.divergenceMsg = "unhardened: " + d;
        }
    }

    if (t.hardened) {
        out.hardenedRan = true;
        vm::VmConfig hardCfg = base;
        out.chaos = opts.chaosEveryN > 0 && s.seed % 2 == 0;
        if (out.chaos)
            hardCfg.chaosRollbackEveryN = opts.chaosEveryN;
        if (ins) {
            hardCfg.recorder = ins->hardened;
            hardCfg.recordSharedAccesses = ins->recordSharedAccesses;
        }
        if (opts.collectMetrics)
            hardCfg.metrics = &out.metrics;
        legBegin();
        vm::RunResult h = vm::runProgram(*t.hardened, hardCfg);
        legEnd(out.wallHardenedUs);
        out.hasProfile = opts.collectProfile;
        out.hardened = h.outcome;
        out.hardenedCorrect = correctRun(t, h);
        out.hardenedInconclusive = h.outcome == vm::Outcome::Timeout;
        out.hardenedStats = h.stats;

        if (opts.differential && !out.chaos && !out.diverged) {
            vm::VmConfig refCfg = hardCfg;
            refCfg.engine = vm::ExecEngine::Reference;
            // The differential replica always runs bare: tick identity
            // against the instrumented leg proves recording is passive
            // (diagnosis mode included).
            refCfg.recorder = nullptr;
            refCfg.metrics = nullptr;
            refCfg.recordSharedAccesses = false;
            legBegin();
            vm::RunResult r = vm::runProgram(*t.hardened, refCfg);
            legEnd(out.wallHardenedDiffUs);
            std::string d = tickDiff(h, r);
            if (!d.empty()) {
                out.diverged = true;
                out.divergenceMsg = "hardened: " + d;
            }
        }
    }
    return out;
}

//
// The campaign runner.
//

void
addGrowthSample(std::vector<std::pair<uint64_t, uint64_t>> &curve,
                uint64_t schedule, uint64_t edges)
{
    curve.emplace_back(schedule, edges);
    if (curve.size() <= 512)
        return;
    std::vector<std::pair<uint64_t, uint64_t>> kept;
    kept.reserve(curve.size() / 2 + 1);
    for (size_t k = 0; k < curve.size(); k += 2)
        kept.push_back(curve[k]);
    if (kept.back() != curve.back())
        kept.push_back(curve.back());
    curve.swap(kept);
}

void
runPool(size_t n, unsigned workers,
        const std::function<void(unsigned worker, size_t i)> &job)
{
    std::atomic<size_t> next{0};
    auto work = [&](unsigned worker) {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            job(worker, i);
        }
    };
    const unsigned threads =
        unsigned(std::min<size_t>(std::max(1u, workers), n));
    if (threads <= 1) {
        work(0);
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned w = 0; w < threads; ++w)
        pool.emplace_back(work, w);
    for (std::thread &th : pool)
        th.join();
}

namespace {

struct Job
{
    size_t target;
    ScheduleSpec spec;
    uint64_t seedOrdinal; ///< 1-based seed index within its policy
    size_t policyIdx;     ///< index into CampaignOptions::policies
};

bool
isFailingSchedule(const ScheduleOutcome &o)
{
    return o.ran && !o.unhardenedCorrect && !o.unhardenedInconclusive;
}

} // namespace

CampaignReport
runCampaign(const std::vector<Target> &targets,
            const CampaignOptions &opts)
{
    std::vector<Job> jobs;
    jobs.reserve(targets.size() * opts.policies.size() *
                 opts.seedsPerPolicy);
    for (size_t ti = 0; ti < targets.size(); ++ti)
        for (size_t pi = 0; pi < opts.policies.size(); ++pi) {
            const auto &[policy, depth] = opts.policies[pi];
            for (uint64_t seed = 1; seed <= opts.seedsPerPolicy; ++seed)
                jobs.push_back(
                    {ti, ScheduleSpec{policy, seed, depth}, seed, pi});
        }

    std::vector<ScheduleOutcome> results(jobs.size());
    std::vector<std::atomic<uint64_t>> failCount(targets.size());

    if (opts.telemetry)
        opts.telemetry->addPlanned(jobs.size());

    auto t0 = std::chrono::steady_clock::now();
    runPool(jobs.size(), opts.workers, [&](unsigned worker, size_t i) {
        const Job &j = jobs[i];
        if (opts.stopAfterFailures > 0 &&
            failCount[j.target].load(std::memory_order_relaxed) >=
                opts.stopAfterFailures) {
            results[i].spec = j.spec; // ran stays false
        } else {
            results[i] = runOneSchedule(targets[j.target], j.spec, opts);
            if (isFailingSchedule(results[i]))
                failCount[j.target].fetch_add(1,
                                              std::memory_order_relaxed);
        }
        // Live telemetry only — the deterministic report below still
        // aggregates from `results` in matrix order.
        if (opts.telemetry)
            opts.telemetry->noteSchedule(worker, targets[j.target].name,
                                         results[i], opts);
    });
    auto t1 = std::chrono::steady_clock::now();

    // Aggregate in matrix order: the report is identical however the
    // workers interleaved (modulo stopAfterFailures short-circuiting).
    CampaignReport rep;
    rep.targets.resize(targets.size());
    std::vector<std::set<std::string>> tags(targets.size());
    // Distinct interleaving-edge keys per target, accumulated in
    // matrix order — std::set iterates sorted, which is exactly the
    // order coverageDigest() wants.
    std::vector<std::set<uint64_t>> covKeys(targets.size());
    // Wall-clock accumulation per (target, policy entry, leg), legs in
    // kWallLegs order.
    struct WallAcc
    {
        uint64_t micros = 0;
        uint64_t spans = 0;
    };
    std::vector<std::vector<WallAcc>> wallAcc;
    if (opts.collectProfile)
        wallAcc.assign(targets.size(),
                       std::vector<WallAcc>(opts.policies.size() * 4));
    for (size_t ti = 0; ti < targets.size(); ++ti) {
        rep.targets[ti].name = targets[ti].name;
        if (opts.collectMetrics)
            for (const auto &[policy, depth] : opts.policies)
                rep.targets[ti].policyMetrics.emplace_back(
                    policyLabel(policy, depth), obs::MetricsRegistry{});
        if (opts.collectProfile)
            for (const auto &[policy, depth] : opts.policies)
                rep.targets[ti].policyProfiles.emplace_back(
                    policyLabel(policy, depth), obs::prof::ProfileAgg{});
    }

    for (size_t i = 0; i < jobs.size(); ++i) {
        const Job &j = jobs[i];
        const ScheduleOutcome &o = results[i];
        TargetReport &tr = rep.targets[j.target];
        if (!o.ran) {
            ++tr.skipped;
            continue;
        }
        ++tr.schedules;
        ++rep.schedules;
        tr.totalSteps += o.steps;
        rep.vmRuns += 1 + (opts.differential ? 1 : 0);

        if (opts.collectCoverage) {
            bool novel = false;
            for (const obs::cov::Edge &e : o.coverage)
                novel |= covKeys[j.target].insert(e.key).second;
            if (novel) {
                ++tr.coverageNovelSchedules;
                addGrowthSample(tr.coverageGrowth, tr.schedules,
                                covKeys[j.target].size());
            }
        }

        forEachWallSpan(o, opts, [&](size_t leg, uint64_t us) {
            WallAcc &a = wallAcc[j.target][j.policyIdx * 4 + leg];
            a.micros += us;
            ++a.spans;
        });
        if (o.hasProfile)
            tr.policyProfiles[j.policyIdx].second.add(o.hardenedStats);

        if (o.unhardenedInconclusive) {
            ++tr.inconclusive;
        } else if (!o.unhardenedCorrect) {
            ++tr.failingSchedules;
            if (o.unhardened == vm::Outcome::Hang)
                ++tr.deadlockSchedules;
            if (!o.unhardenedTag.empty())
                tags[j.target].insert(o.unhardenedTag);
            else
                tags[j.target].insert(vm::outcomeName(o.unhardened));
            if (!tr.foundFailure) {
                tr.foundFailure = true;
                tr.firstFailure = o.spec;
                tr.firstFailureSeedBudget = j.seedOrdinal;
                tr.firstFailureScheduleOrdinal = tr.schedules;
                // Includes the failing schedule's own edges — the
                // coverage block above ran first.
                tr.coverageEdgesAtFirstFailure =
                    covKeys[j.target].size();
            }
        }

        if (o.diverged && !tr.hasDivergence) {
            tr.hasDivergence = true;
            tr.firstDivergence = o.spec;
            tr.firstDivergenceMsg = o.divergenceMsg;
        }
        tr.divergences += o.diverged;

        if (o.hardenedRan) {
            ++tr.hardenedSchedules;
            if (opts.collectMetrics)
                tr.policyMetrics[j.policyIdx].second.merge(o.metrics);
            rep.vmRuns +=
                1 + (opts.differential && !o.chaos && !o.diverged);
            tr.chaosRuns += o.chaos;
            tr.chaosRollbacks += o.hardenedStats.chaosRollbacks;
            if (o.hardenedInconclusive) {
                ++tr.hardenedInconclusive;
            } else if (!o.hardenedCorrect) {
                if (targets[j.target].mustRecover) {
                    ++tr.unrecovered;
                    if (!tr.hasUnrecovered) {
                        tr.hasUnrecovered = true;
                        tr.firstUnrecovered = o.spec;
                    }
                }
                // The recovery property quantifies over schedules where
                // the *unhardened* leg failed: there the hardened leg
                // must either recover or surface the same failure kind.
                if (!o.unhardenedCorrect && !o.unhardenedInconclusive &&
                    o.hardened != o.unhardened)
                    ++tr.hardenedDifferentFailure;
            }
        }
    }

    for (size_t ti = 0; ti < targets.size(); ++ti) {
        TargetReport &tr = rep.targets[ti];
        tr.failureTags.assign(tags[ti].begin(), tags[ti].end());
        rep.totalSteps += tr.totalSteps;
        rep.divergences += tr.divergences;
        rep.unrecovered += tr.unrecovered;
        if (opts.collectCoverage) {
            tr.hasCoverage = true;
            tr.coverageDistinctEdges = covKeys[ti].size();
            if (tr.schedules > 0)
                tr.coverageNoveltyRate =
                    double(tr.coverageNovelSchedules) /
                    double(tr.schedules);
            std::vector<uint64_t> keys(covKeys[ti].begin(),
                                       covKeys[ti].end());
            tr.coverageDigest = obs::cov::coverageDigest(keys);
        }
        if (opts.collectProfile) {
            tr.hasProfile = true;
            for (const auto &[label, agg] : tr.policyProfiles)
                tr.profile.merge(agg);
            for (size_t pi = 0; pi < opts.policies.size(); ++pi)
                for (int leg = 0; leg < 4; ++leg) {
                    const WallAcc &a = wallAcc[ti][pi * 4 + leg];
                    if (!a.spans)
                        continue;
                    obs::prof::WallCell c;
                    c.kernel = tr.name;
                    c.policy = policyLabel(opts.policies[pi].first,
                                           opts.policies[pi].second);
                    c.leg = kWallLegs[leg];
                    c.micros = a.micros;
                    c.spans = a.spans;
                    tr.wall.push_back(std::move(c));
                }
        }
    }
    rep.seconds = std::chrono::duration<double>(t1 - t0).count();
    if (rep.seconds > 0)
        rep.schedulesPerSec = double(rep.schedules) / rep.seconds;
    return rep;
}

std::string
CampaignReport::summary() const
{
    std::string out;
    for (const TargetReport &tr : targets) {
        out += strfmt(
            "%-14s %6llu schedules  %5llu failing  %3llu inconclusive"
            "  %llu divergent  %llu unrecovered",
            tr.name.c_str(), (unsigned long long)tr.schedules,
            (unsigned long long)tr.failingSchedules,
            (unsigned long long)tr.inconclusive,
            (unsigned long long)tr.divergences,
            (unsigned long long)tr.unrecovered);
        if (tr.foundFailure)
            out += strfmt("  first-failure %s (seed budget %llu)",
                          tr.firstFailure.token().c_str(),
                          (unsigned long long)tr.firstFailureSeedBudget);
        out += '\n';
        if (tr.hasDivergence)
            out += "  DIVERGENCE (" + tr.firstDivergenceMsg + "): " +
                   reproCommand(tr.name, tr.firstDivergence) + "\n";
        if (tr.hasUnrecovered)
            out += "  UNRECOVERED: " +
                   reproCommand(tr.name, tr.firstUnrecovered) + "\n";
    }
    out += strfmt("total: %llu schedules, %llu VM runs, %.1f sched/s, "
                  "%llu divergences, %llu unrecovered\n",
                  (unsigned long long)schedules,
                  (unsigned long long)vmRuns, schedulesPerSec,
                  (unsigned long long)divergences,
                  (unsigned long long)unrecovered);
    return out;
}

} // namespace conair::explore
