#include "perfbench/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <unordered_map>

#include "frontend/compile.h"
#include "obs/metrics.h"
#include "obs/profile/profile.h"
#include "obs/trace.h"
#include "vm/interp.h"

namespace perfbench {

using namespace conair;

void
Report::fail(const std::string &msg, uint64_t n)
{
    failed += n;
    if (failures.size() < 8)
        failures.push_back(msg);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double logSum = 0;
    for (double x : v)
        logSum += std::log(x);
    return std::exp(logSum / double(v.size()));
}

double
sum(const std::vector<double> &v)
{
    double total = 0;
    for (double x : v)
        total += x;
    return total;
}

double
tailQuantile(size_t n)
{
    for (double q : {0.999, 0.99, 0.95, 0.90, 0.75})
        if (double(n) * (1.0 - q) >= 10.0)
            return q;
    return 0.5;
}

std::string
percentileLabel(double q)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "p%g", q * 100.0);
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

int64_t
nowNs()
{
    static const Clock::time_point start = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start)
        .count();
}

SpanLog::Scope
SpanLog::open(const char *layer, const char *name, uint64_t op)
{
    if (!enabled)
        return Scope(nullptr, 0);
    Span s;
    s.id = ids_.fetch_add(1, std::memory_order_relaxed) + 1;
    s.parent = stack_.empty() ? 0 : spans[stack_.back()].id;
    s.op = op;
    s.layer = layer;
    s.name = name;
    s.startNs = nowNs();
    spans.push_back(s);
    stack_.push_back(spans.size() - 1);
    return Scope(this, spans.size() - 1);
}

void
SpanLog::close(size_t idx)
{
    spans[idx].durNs = nowNs() - spans[idx].startNs;
    stack_.pop_back();
}

void
SpanLog::derived(const char *layer, const char *name, uint64_t op,
                 uint64_t parent, double micros)
{
    if (!enabled)
        return;
    Span s;
    s.id = ids_.fetch_add(1, std::memory_order_relaxed) + 1;
    s.parent = parent;
    s.op = op;
    s.layer = layer;
    s.name = name;
    s.startNs = -1;
    s.durNs = int64_t(micros * 1000.0);
    spans.push_back(s);
}

std::vector<double>
spanMs(const std::vector<Span> &spans, const char *name)
{
    std::vector<double> out;
    for (const Span &s : spans)
        if (std::string_view(s.name) == name)
            out.push_back(double(s.durNs) / 1e6);
    return out;
}

void
emitSelfTimeSplit(const std::vector<Span> &spans, Report &rep)
{
    // Children of one span run one after another on its thread, so the
    // part of a span its children cover is the sum of their durations.
    std::unordered_map<uint64_t, int64_t> childNs;
    for (const Span &s : spans)
        if (s.parent)
            childNs[s.parent] += s.durNs;
    std::map<std::string, double> selfNs;
    for (const char *layer :
         {"bench", "frontend", "conair", "vm", "explore", "obs", "fix"})
        selfNs[layer] = 0;
    double opNs = 0;
    uint64_t ops = 0;
    for (const Span &s : spans) {
        if (!s.op)
            continue;
        auto it = childNs.find(s.id);
        selfNs[s.layer] +=
            double(s.durNs - (it == childNs.end() ? 0 : it->second));
        if (!s.parent) {
            opNs += double(s.durNs);
            ++ops;
        }
    }
    for (const auto &[layer, ns] : selfNs)
        rep.metric("split." + layer, opNs > 0 ? ns / opNs : 0, "ratio");
    rep.metric("split.op_ms", ops ? opNs / double(ops) / 1e6 : 0, "ms");
}

void
emitTraceOverhead(const std::vector<double> &passSeconds, Report &rep)
{
    std::vector<double> untraced, traced;
    for (size_t i = 0; i < passSeconds.size(); ++i)
        (i % 2 ? traced : untraced).push_back(passSeconds[i]);
    rep.metric("trace.overhead", median(traced) / median(untraced) - 1.0,
               "ratio");
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    for (const Span &s : spans)
        out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"op\":" << s.op << ",\"layer\":\"" << s.layer
            << "\",\"name\":\"" << s.name << "\",\"start_ns\":"
            << s.startNs << ",\"dur_ns\":" << s.durNs << "}\n";
    return bool(out);
}

size_t
instCount(const ir::Module &m)
{
    size_t n = 0;
    for (const auto &f : m.functions())
        for (const auto &b : f->blocks())
            n += b->size();
    return n;
}

apps::PreparedApp
buildApp(const std::string &name, const std::string &source, bool harden,
         SpanLog &log, uint64_t op, std::string &err)
{
    apps::PreparedApp p;
    DiagEngine diags;
    fe::CompileOptions copts;
    copts.moduleName = name;
    {
        auto span = log.open("frontend", "fe::compileMiniC", op);
        p.module = fe::compileMiniC(source, diags, copts);
    }
    if (!p.module) {
        err = diags.str();
        return p;
    }
    if (harden) {
        auto span = log.open("conair", "ca::applyConAir", op);
        p.report = ca::applyConAir(*p.module);
        p.hardened = true;
    }
    return p;
}

std::vector<Kernel>
setUpKernels(SpanLog &log, std::vector<double> &times)
{
    Clock::time_point t0 = Clock::now();
    std::vector<Kernel> kernels;
    kernels.reserve(apps::allApps().size());
    for (const apps::AppSpec &spec : apps::allApps()) {
        Kernel k;
        std::string err;
        k.app.spec = &spec;
        k.app.plain = buildApp(spec.name, spec.source, false, log, 0, err);
        k.app.hardened = buildApp(spec.name, spec.source, true, log, 0, err);
        if (!k.app.plain.module || !k.app.hardened.module)
            fatal("kernel '" + spec.name + "' failed to compile:\n" + err);
        k.app.plain.spec = k.app.hardened.spec = &spec;
        {
            auto span = log.open("explore", "apps::campaignTarget", 0);
            k.target = apps::campaignTarget(k.app);
        }
        kernels.push_back(std::move(k));
    }
    times.push_back(secondsSince(t0));
    return kernels;
}

BuildCounts
BuildCounts::of(const std::vector<Kernel> &kernels)
{
    BuildCounts bc;
    for (const Kernel &k : kernels)
        bc.add(*k.app.plain.module, k.app.hardened);
    return bc;
}

void
BuildCounts::add(const ir::Module &plain, const apps::PreparedApp &hardened)
{
    irInsts += instCount(plain);
    hardenedInsts += instCount(*hardened.module);
    sites += hardened.report.identified.total();
    reexecPoints += hardened.report.staticReexecPoints;
}

void
BuildCounts::addCounts(Report &rep) const
{
    rep.counts["frontend.ir_insts"] = double(irInsts);
    rep.counts["conair.hardened_insts"] = double(hardenedInsts);
    rep.counts["conair.sites"] = double(sites);
    rep.counts["conair.reexec_points"] = double(reexecPoints);
}

void
BuildCounts::emit(const std::vector<Span> &spans, Report &rep) const
{
    rep.metric("frontend.compile_ms",
               median(spanMs(spans, "fe::compileMiniC")), "ms");
    rep.metric("frontend.ir_insts", double(irInsts), "count");
    rep.metric("conair.harden_ms",
               median(spanMs(spans, "ca::applyConAir")), "ms");
    rep.metric("conair.sites", double(sites), "count");
    rep.metric("conair.reexec_points", double(reexecPoints), "count");
    rep.metric("conair.ir_growth",
               irInsts ? double(hardenedInsts) / double(irInsts) : 0,
               "ratio");
}

namespace {

struct TimedRun
{
    vm::RunResult result;
    double constructUs = 0;
    double runSec = 0;
};

TimedRun
timedRun(const ir::Module &m, const vm::VmConfig &cfg)
{
    TimedRun t;
    Clock::time_point t0 = Clock::now();
    vm::Interp interp(m, cfg);
    Clock::time_point t1 = Clock::now();
    t.result = interp.run();
    t.runSec = secondsSince(t1);
    t.constructUs =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    return t;
}

bool
sameRun(const vm::RunResult &a, const vm::RunResult &b)
{
    return a.outcome == b.outcome && a.clock == b.clock &&
           a.stats.steps == b.stats.steps && a.output == b.output &&
           a.exitCode == b.exitCode && a.failureTag == b.failureTag &&
           a.memDigest == b.memDigest;
}

} // namespace

void
VmProbe::run(const ir::Module &m, const vm::VmConfig &cfg,
             bool hardenedLeg, Report &rep)
{
    TimedRun bare = timedRun(m, cfg);
    const vm::RunStats &st = bare.result.stats;
    constructUs_.push_back(bare.constructUs);
    runUs_.push_back(bare.runSec * 1e6);
    engineSteps_[0] += double(st.steps);
    engineSec_[0] += bare.runSec;
    steps_ += st.steps;
    fastPath_ += st.fastPathSteps;
    memHits_ += st.memCacheHits;
    memMisses_ += st.memCacheMisses;
    schedTicks_ += st.schedTicks;
    recoveries_ += st.recoveries.size();
    rollbacks_ += st.rollbacks;
    (hardenedLeg ? hardenedSteps_ : plainSteps_) += st.steps;

    // The same run with the campaign's production observers attached.
    vm::VmConfig obsCfg = cfg;
    std::unique_ptr<obs::FlightRecorder> rec;
    obs::MetricsRegistry metrics;
    obs::prof::PhaseProfiler profiler;
    if (hardenedLeg) {
        obsCfg.metrics = &metrics;
        obsCfg.profiler = &profiler;
    } else {
        rec = std::make_unique<obs::FlightRecorder>(8192);
        obsCfg.recorder = rec.get();
        obsCfg.recordSharedAccesses = true;
    }
    TimedRun observed = timedRun(m, obsCfg);
    observedSec_ += observed.runSec;
    bareSec_ += bare.runSec;
    if (rec) {
        switches_ += rec->totalOf(obs::EventKind::SchedSwitch);
        lockEvents_ += rec->totalOf(obs::EventKind::LockAcquire) +
                       rec->totalOf(obs::EventKind::LockBlock) +
                       rec->totalOf(obs::EventKind::LockTimeout);
    }
    if (!sameRun(bare.result, observed.result))
        rep.fail("vm probe: observers perturbed the run");

    // Chaos rollbacks are not part of the cross-engine contract (the
    // campaign skips the differential on chaos schedules too).
    if (cfg.chaosRollbackEveryN)
        return;
    const vm::ExecEngine engines[2] = {vm::ExecEngine::Reference,
                                       vm::ExecEngine::Fused};
    for (int e = 0; e < 2; ++e) {
        vm::VmConfig ecfg = cfg;
        ecfg.engine = engines[e];
        TimedRun r = timedRun(m, ecfg);
        engineSteps_[e + 1] += double(r.result.stats.steps);
        engineSec_[e + 1] += r.runSec;
        if (!sameRun(bare.result, r.result))
            rep.fail(std::string("vm probe: ") +
                     (e == 0 ? "Reference" : "Fused") +
                     " engine diverged from Decoded");
    }
}

void
VmProbe::emit(Report &rep) const
{
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
    rep.metric("vm.construct_us", median(constructUs_), "us");
    rep.metric("vm.run_us", median(runUs_), "us");
    static const char *const kEngine[3] = {"decoded", "reference",
                                           "fused"};
    for (int e = 0; e < 3; ++e)
        rep.metric(std::string("vm.steps_per_s.") + kEngine[e],
                   ratio(engineSteps_[e], engineSec_[e]), "1/s");
    rep.metric("vm.fast_path_share", ratio(fastPath_, steps_), "ratio");
    rep.metric("vm.mem_cache_hit_ratio",
               ratio(memHits_, memHits_ + memMisses_), "ratio");
    rep.metric("vm.sched_ticks", double(schedTicks_), "count");
    rep.metric("vm.sched_switches", double(switches_), "count");
    rep.metric("vm.lock_events", double(lockEvents_), "count");
    rep.metric("vm.recoveries", double(recoveries_), "count");
    rep.metric("vm.rollbacks", double(rollbacks_), "count");
    rep.metric("obs.observer_overhead", ratio(observedSec_, bareSec_),
               "ratio");
    rep.counts["probe.steps"] = double(steps_);
    rep.counts["probe.sched_ticks"] = double(schedTicks_);
    rep.counts["probe.sched_switches"] = double(switches_);
    rep.counts["probe.lock_events"] = double(lockEvents_);
    rep.counts["probe.recoveries"] = double(recoveries_);
    rep.counts["probe.rollbacks"] = double(rollbacks_);
}

double
VmProbe::overheadSteps() const
{
    return plainSteps_ ? double(hardenedSteps_) / double(plainSteps_)
                       : 0;
}

} // namespace perfbench
