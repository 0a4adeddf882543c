#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cctype>

#include "support/diag.h"
#include "support/json.h"
#include "support/prom.h"
#include "support/str.h"
#include "vm/stats.h"

namespace conair::obs {

Histogram::Histogram(std::vector<uint64_t> upperBounds)
    : bounds(std::move(upperBounds)), counts(bounds.size() + 1, 0)
{
}

void
Histogram::observe(uint64_t v)
{
    size_t i = std::lower_bound(bounds.begin(), bounds.end(), v) -
               bounds.begin();
    ++counts[i];
    ++count;
    sum += v;
    max = std::max(max, v);
}

void
Histogram::merge(const Histogram &other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        *this = other;
        return;
    }
    if (bounds != other.bounds)
        fatal("Histogram::merge: bucket layouts differ");
    for (size_t i = 0; i < counts.size(); ++i)
        counts[i] += other.counts[i];
    count += other.count;
    sum += other.sum;
    max = std::max(max, other.max);
}

double
Histogram::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    double rank = q * double(count);
    uint64_t seen = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        if (double(seen) + double(counts[i]) >= rank) {
            if (i == bounds.size())
                return double(max); // overflow bucket: best bound known
            double lo = i == 0 ? 0.0 : double(bounds[i - 1]);
            double hi = double(bounds[i]);
            double frac =
                std::max(0.0, (rank - double(seen)) / double(counts[i]));
            return std::min(lo + (hi - lo) * frac, double(max));
        }
        seen += counts[i];
    }
    return double(max);
}

void
MetricsRegistry::add(const std::string &name, uint64_t delta)
{
    counters_[name] += delta;
}

uint64_t
MetricsRegistry::counter(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
MetricsRegistry::observe(const std::string &name, uint64_t v,
                         const std::vector<uint64_t> &bounds)
{
    auto it = hists_.find(name);
    if (it == hists_.end()) {
        it = hists_.emplace(name, Histogram(bounds)).first;
    } else {
        // First-use-wins contract: the ladder a histogram was created
        // with is the ladder it keeps.  Passing different bounds for
        // the same name is a caller bug — merge() would later fail on
        // the mismatch — so it is fatal in debug builds and ignored
        // (the original ladder is kept) in release builds.
        // One literal: assert prints the expression as written, and
        // the death test matches this message in it.
        assert(it->second.bounds == bounds &&
               "bucket bounds differ from the histogram's first use");
    }
    it->second.observe(v);
}

const Histogram *
MetricsRegistry::histogram(const std::string &name) const
{
    auto it = hists_.find(name);
    return it == hists_.end() ? nullptr : &it->second;
}

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    for (const auto &[name, v] : other.counters_)
        counters_[name] += v;
    for (const auto &[name, h] : other.hists_) {
        auto it = hists_.find(name);
        if (it == hists_.end())
            hists_.emplace(name, h);
        else
            it->second.merge(h);
    }
}

void
MetricsRegistry::clear()
{
    counters_.clear();
    hists_.clear();
}

void
MetricsRegistry::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.key("counters").beginObject();
    for (const auto &[name, v] : counters_)
        w.key(name).value(v);
    w.endObject();
    w.key("histograms").beginObject();
    for (const auto &[name, h] : hists_) {
        w.key(name).beginObject();
        w.key("count").value(h.count);
        w.key("sum").value(h.sum);
        w.key("max").value(h.max);
        w.key("mean").value(h.mean(), "%.3f");
        w.key("p50").value(h.p50(), "%.3f");
        w.key("p95").value(h.p95(), "%.3f");
        w.key("p99").value(h.p99(), "%.3f");
        w.key("bounds").beginArray();
        for (uint64_t bnd : h.bounds)
            w.value(bnd);
        w.endArray();
        w.key("buckets").beginArray();
        for (uint64_t c : h.counts)
            w.value(c);
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

std::string
MetricsRegistry::toJson(int indent) const
{
    JsonWriter w(indent);
    writeJson(w);
    return w.str();
}

namespace {

/** Prometheus metric names allow [a-zA-Z0-9_:] only. */
std::string
promName(const std::string &name)
{
    std::string out = name;
    for (char &c : out)
        if (!std::isalnum((unsigned char)c) && c != '_' && c != ':')
            c = '_';
    if (out.empty() || std::isdigit((unsigned char)out[0]))
        out.insert(out.begin(), '_');
    return out;
}

/** Label values escape backslash, double quote, and newline. */
std::string
promLabelValue(const std::string &v)
{
    std::string out;
    for (char c : v) {
        if (c == '\\' || c == '"')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

/** Stable HELP strings for the stock instruments; unknown families
 *  get a generic line so every exposed family carries one. */
std::string
helpFor(const std::string &family)
{
    static const std::map<std::string, std::string> kHelp = {
        {"checkpoints", "Checkpoints executed by the hardened run."},
        {"rollbacks", "ConAir rollbacks (idempotent re-executions)."},
        {"recoveries", "Completed recovery episodes."},
        {"backoffs", "Retry back-off sleeps during recovery."},
        {"compensation_frees",
         "Heap blocks compensation-freed on rollback."},
        {"compensation_unlocks",
         "Mutexes compensation-unlocked on rollback."},
        {"chaos_rollbacks", "Fault-injected (chaos) rollbacks."},
        {"retries_by_site",
         "Recovery retries attributed to a failure site."},
        {"recovery_latency_us",
         "Recovery episode latency in virtual microseconds."},
        {"recovery_retries", "Retries needed per recovery episode."},
        {"ckpt_to_failure_ticks",
         "Checkpoint-to-failure distance in scheduling ticks."},
    };
    auto it = kHelp.find(family);
    if (it != kHelp.end())
        return it->second;
    return "ConAir metric " + family + ".";
}

} // namespace

void
MetricsRegistry::addRun(const vm::RunStats &run)
{
    auto count = [this](const std::string &name, uint64_t v) {
        if (v)
            add(name, v);
    };
    count("checkpoints", run.checkpointsExecuted);
    count("rollbacks", run.rollbacks);
    count("recoveries", run.recoveries.size());
    count("backoffs", run.backoffs);
    count("compensation_frees", run.compensationFrees);
    count("compensation_unlocks", run.compensationUnlocks);
    count("chaos_rollbacks", run.chaosRollbacks);
    for (const vm::RecoveryEvent &ev : run.recoveries) {
        count("retries_by_site/" + ev.siteTag, ev.retries);
        observe("recovery_latency_us", uint64_t(ev.micros()),
                latencyBucketsUs());
        observe("recovery_retries", ev.retries, retryBuckets());
    }
    if (run.ckptToFailureTicks.count)
        hists_["ckpt_to_failure_ticks"].merge(run.ckptToFailureTicks);
}

std::string
MetricsRegistry::toPrometheusText() const
{
    std::string out;
    // Counters.  A '/' splits a family from its site label
    // (retries_by_site/<tag> -> retries_by_site{site="<tag>"}); the
    // map is sorted, so a family's members are adjacent and its
    // `# TYPE` header is emitted once.
    std::string lastFamily;
    for (const auto &[name, v] : counters_) {
        size_t slash = name.find('/');
        std::string family = promName(name.substr(0, slash));
        if (family != lastFamily) {
            promFamily(out, family, "counter", helpFor(family));
            lastFamily = family;
        }
        if (slash == std::string::npos)
            out += strfmt("%s %llu\n", family.c_str(),
                          (unsigned long long)v);
        else
            out += strfmt("%s{site=\"%s\"} %llu\n", family.c_str(),
                          promLabelValue(name.substr(slash + 1)).c_str(),
                          (unsigned long long)v);
    }
    // Histograms: cumulative buckets + sum + count (the 0.0.4
    // histogram series), then the estimated quantiles as companion
    // gauge families for consumers that can't run
    // histogram_quantile() themselves.
    for (const auto &[name, h] : hists_) {
        std::string family = promName(name);
        promFamily(out, family, "histogram", helpFor(family));
        uint64_t cum = 0;
        for (size_t i = 0; i < h.bounds.size(); ++i) {
            cum += h.counts[i];
            out += strfmt("%s_bucket{le=\"%llu\"} %llu\n",
                          family.c_str(),
                          (unsigned long long)h.bounds[i],
                          (unsigned long long)cum);
        }
        out += strfmt("%s_bucket{le=\"+Inf\"} %llu\n", family.c_str(),
                      (unsigned long long)h.count);
        out += strfmt("%s_sum %llu\n", family.c_str(),
                      (unsigned long long)h.sum);
        out += strfmt("%s_count %llu\n", family.c_str(),
                      (unsigned long long)h.count);
        const struct
        {
            const char *suffix;
            double q;
        } quantiles[] = {{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}};
        for (const auto &qd : quantiles) {
            std::string gauge = family + "_" + qd.suffix;
            promFamily(out, gauge, "gauge",
                       strfmt("Estimated %g-quantile of %s.", qd.q,
                              family.c_str()));
            out += strfmt("%s %.3f\n", gauge.c_str(), h.quantile(qd.q));
        }
    }
    return out;
}

const std::vector<uint64_t> &
MetricsRegistry::latencyBucketsUs()
{
    // Recovery latency in virtual microseconds: rollback-to-recovery
    // episodes span a handful of re-executed instructions (0.1 µs
    // each) up to long retry/back-off loops.
    static const std::vector<uint64_t> b = {1,   2,   5,    10,   20,
                                            50,  100, 200,  500,  1000,
                                            2000, 5000, 10000, 100000};
    return b;
}

const std::vector<uint64_t> &
MetricsRegistry::retryBuckets()
{
    static const std::vector<uint64_t> b = {1, 2, 3, 4, 6, 8, 12, 16, 32};
    return b;
}

const std::vector<uint64_t> &
MetricsRegistry::tickDistanceBuckets()
{
    // Checkpoint-to-failure distance in scheduling ticks: ConAir's
    // whole bet is that this stays tiny (idempotent region), so the
    // ladder is dense near zero.
    static const std::vector<uint64_t> b = {0,  1,  2,   4,   8,   16,
                                            32, 64, 128, 256, 1024, 8192};
    return b;
}

} // namespace conair::obs
