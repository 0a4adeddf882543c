/**
 * @file
 * A small metrics registry: named monotonic counters plus fixed-bucket
 * histograms, built for deterministic aggregation.  A registry is a
 * fold of vm::RunStats: as a run ends, the VM folds its stats into
 * VmConfig::metrics with addRun(), the one place that names the stock
 * instruments (schema: docs/OBSERVABILITY.md).  The campaign engine
 * merges per-schedule registries per (kernel, policy) in matrix order,
 * so the aggregated numbers are independent of worker count — pinned
 * by tests/explore/campaign_test.cpp.
 *
 * Map-backed on purpose: names serialize in sorted order, keeping the
 * JSON artifact byte-stable for the golden tests.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace conair {
class JsonWriter;
}

namespace conair::vm {
struct RunStats;
}

namespace conair::obs {

/** A fixed-bucket histogram.  `bounds` are inclusive upper edges of
 *  the finite buckets; one overflow bucket catches the rest. */
struct Histogram
{
    std::vector<uint64_t> bounds; ///< ascending upper edges
    std::vector<uint64_t> counts; ///< bounds.size() + 1 buckets
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;

    Histogram() = default;
    explicit Histogram(std::vector<uint64_t> upperBounds);

    void observe(uint64_t v);

    /** Adds @p other in; bucket layouts must match. */
    void merge(const Histogram &other);

    double mean() const { return count ? double(sum) / double(count) : 0.0; }

    /**
     * Estimated q-quantile (q in [0, 1]) by linear interpolation inside
     * the bucket holding the q*count-th observation — the classic
     * Prometheus histogram_quantile estimator.  Interpolates from the
     * previous bound to the bucket's upper bound (the first finite
     * bucket starts at 0); an estimate landing in the overflow bucket
     * is clamped to the observed max.  0 when empty.
     */
    double quantile(double q) const;

    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }

    bool operator==(const Histogram &) const = default;
};

class MetricsRegistry
{
  public:
    /** Adds @p delta to counter @p name (created at zero on first use). */
    void add(const std::string &name, uint64_t delta = 1);

    /** Counter value (0 when the counter was never touched). */
    uint64_t counter(const std::string &name) const;

    /** Records @p v into histogram @p name, creating it with
     *  @p bounds on first use.  Later calls ignore @p bounds. */
    void observe(const std::string &name, uint64_t v,
                 const std::vector<uint64_t> &bounds);

    /** The histogram, or nullptr if never observed. */
    const Histogram *histogram(const std::string &name) const;

    /** Folds @p other in: counters add, histograms merge. */
    void merge(const MetricsRegistry &other);

    /** Folds one finished run in, naming the stock instruments and
     *  picking their ladders.  Only nonzero counters and observed
     *  histograms are touched; retries_by_site/<tag> sums the
     *  retries of that site's recoveries. */
    void addRun(const vm::RunStats &run);

    bool empty() const { return counters_.empty() && hists_.empty(); }
    void clear();

    const std::map<std::string, uint64_t> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, Histogram> &histograms() const
    {
        return hists_;
    }

    /** Serializes as {"counters": {...}, "histograms": {...}} into an
     *  open writer position (caller owns the surrounding document). */
    void writeJson(JsonWriter &w) const;

    /** A standalone pretty-printed JSON document. */
    std::string toJson(int indent = 2) const;

    /**
     * Prometheus text exposition format (version 0.0.4): every family
     * carries `# HELP` (backslash/newline escaped) and `# TYPE`
     * lines; counters as plain samples, histograms as cumulative
     * `_bucket{le="..."}` series plus `_sum` / `_count`, followed by
     * `_p50` / `_p95` / `_p99` estimated-quantile gauge families.
     * Metric names are sanitised to [a-zA-Z0-9_:] (so
     * `retries_by_site/<tag>` becomes a `site="<tag>"` label on
     * `retries_by_site`); label values escape `\`, `"`, and newline.
     * Byte-pinned by tests/obs/metrics_prom_golden_test.cpp.
     */
    std::string toPrometheusText() const;

    bool operator==(const MetricsRegistry &) const = default;

    // Stock bucket ladders for the VM's instruments.
    static const std::vector<uint64_t> &latencyBucketsUs();
    static const std::vector<uint64_t> &retryBuckets();
    static const std::vector<uint64_t> &tickDistanceBuckets();

  private:
    std::map<std::string, uint64_t> counters_;
    std::map<std::string, Histogram> hists_;
};

} // namespace conair::obs
