/**
 * @file
 * Shared plumbing of the repository benchmark (perfbench): settings,
 * the per-run report, statistics helpers, the in-memory span log of the
 * traced run, and the VM probe that re-issues sampled runs through
 * vm::Interp.  See README.md for the workloads and metric definitions.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/harness.h"
#include "explore/campaign.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line settings shared by every workload. */
struct Settings
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned workers = 0; ///< campaign / validation pool size
    unsigned nproc = 0;
    std::string outDir;   ///< the only directory the run writes to
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Everything one workload run reports. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few failure messages

    /** End-to-end metrics (untraced) or per-layer metrics (traced). */
    std::vector<Metric> metrics;

    /** Deterministic counts: identical across runs with one seed, and
     *  between traced and untraced runs. */
    std::map<std::string, double> counts;

    /** Labels printed next to the metrics (tail percentile, bases). */
    std::map<std::string, std::string> info;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Counts @p n failed operations and keeps the message. */
    void fail(const std::string &msg, uint64_t n = 1);
};

/// @{ Statistics over samples (all take copies; inputs stay unsorted).
double median(std::vector<double> v);
/** Linear-interpolation quantile, q in [0, 1]; 0 when empty. */
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double> &v);
double sum(const std::vector<double> &v);
/** The highest of p99.9/p99/p95/p90/p75/p50 with at least ten of
 *  @p n samples beyond it, as a fraction (0.5 when n < 20). */
double tailQuantile(size_t n);
/** "p99", "p99.9", ... for a tailQuantile() value. */
std::string percentileLabel(double q);
/** Peak resident set of this process in MB. */
double peakRssMb();
/// @}

/**
 * Runs whole passes of a workload until @p seconds have elapsed: a new
 * pass starts only when it is expected to finish in time, and at least
 * three run.  @p between runs after each pass, untimed.  Returns each
 * pass's wall seconds, which it also lists in the report's "pass_s"
 * label.  The callback gets the pass index; a traced run traces the odd
 * passes only (see emitTraceOverhead()).
 */
template <class F, class G>
std::vector<double>
runPasses(double seconds, Report &rep, F &&pass, G &&between)
{
    std::vector<double> times;
    Clock::time_point start = Clock::now();
    while (times.size() < 3 ||
           secondsSince(start) + times.back() <= seconds) {
        Clock::time_point t0 = Clock::now();
        pass(unsigned(times.size()));
        times.push_back(secondsSince(t0));
        between();
    }
    std::string list;
    for (double t : times)
        list += (list.empty() ? "" : " ") + std::to_string(t);
    rep.info["pass_s"] = list;
    return times;
}

/** Emits trace.overhead: the median traced (odd) pass time over the
 *  median untraced (even) pass time, minus 1. */
void emitTraceOverhead(const std::vector<double> &passSeconds, Report &rep);

/** One span of the traced run.  Derived spans (campaign legs, whose
 *  durations come from ScheduleOutcome) have startNs = -1. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root
    uint64_t op = 0;     ///< 0 = set-up, not an op
    const char *layer = "";
    const char *name = "";
    int64_t startNs = 0;
    int64_t durNs = 0;
};

/**
 * In-memory spans of one thread.  Span ids come from a counter shared
 * by every log of the run.  When disabled, open() reads no clock and
 * records nothing, so untraced passes run the same code.
 */
class SpanLog
{
  public:
    class Scope
    {
      public:
        Scope(SpanLog *log, size_t idx) : log_(log), idx_(idx) {}
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope()
        {
            if (log_)
                log_->close(idx_);
        }

        /** The span's id (0 when the log is disabled). */
        uint64_t id() const { return log_ ? log_->spans[idx_].id : 0; }

      private:
        SpanLog *log_;
        size_t idx_;
    };

    explicit SpanLog(std::atomic<uint64_t> &ids) : ids_(ids) {}

    bool enabled = false;
    std::vector<Span> spans;

    /** Opens a span nested in the innermost open one. */
    [[nodiscard]] Scope open(const char *layer, const char *name,
                             uint64_t op);

    /** Adds a closed child of span @p parent with only a duration. */
    void derived(const char *layer, const char *name, uint64_t op,
                 uint64_t parent, double micros);

  private:
    void close(size_t idx);

    std::atomic<uint64_t> &ids_;
    std::vector<size_t> stack_;
};

/** Nanoseconds since process start on the steady clock. */
int64_t nowNs();

/** Durations in ms of every span called @p name. */
std::vector<double> spanMs(const std::vector<Span> &spans,
                           const char *name);

/**
 * Emits the self-time split of an op: for each layer, the summed self
 * time of its spans inside ops (span minus its children) as a share of
 * the summed op time ("split.<layer>"), plus "split.op_ms" (mean op).
 */
void emitSelfTimeSplit(const std::vector<Span> &spans, Report &rep);

/** Writes @p spans as JSON lines to @p path; false on I/O failure. */
bool writeSpans(const std::string &path, const std::vector<Span> &spans);

/**
 * Re-issues sampled VM runs through vm::Interp, splitting construction
 * (decode/fuse) from run(), observed runs from bare ones, and the three
 * engines from each other.  Each sampled config runs bare on Decoded,
 * with the campaign's production observers on Decoded, and bare on
 * Reference and Fused; the runs must agree tick for tick.
 */
class VmProbe
{
  public:
    /** @p hardenedLeg picks the observer set: the campaign attaches a
     *  diagnosis-mode flight recorder to the unhardened leg and a
     *  metrics registry plus phase profiler to the hardened one. */
    void run(const conair::ir::Module &m, const conair::vm::VmConfig &cfg,
             bool hardenedLeg, Report &rep);

    /** Emits the vm.* metrics (all but vm.overhead_steps) and
     *  obs.observer_overhead. */
    void emit(Report &rep) const;

    /** Hardened-leg steps / unhardened-leg steps over the sample. */
    double overheadSteps() const;

  private:
    std::vector<double> constructUs_, runUs_;
    double engineSteps_[3] = {}, engineSec_[3] = {};
    double observedSec_ = 0, bareSec_ = 0;
    uint64_t steps_ = 0, fastPath_ = 0, memHits_ = 0, memMisses_ = 0;
    uint64_t schedTicks_ = 0, switches_ = 0, lockEvents_ = 0;
    uint64_t recoveries_ = 0, rollbacks_ = 0;
    uint64_t plainSteps_ = 0, hardenedSteps_ = 0;
};

/** Instructions in @p m (all functions, all blocks). */
size_t instCount(const conair::ir::Module &m);

/**
 * Compiles one build the way apps::prepareApp does — compileMiniC,
 * then applyConAir in survival mode when @p harden — spanning each
 * public call.  The module is null when @p source does not compile;
 * @p err then holds the diagnostics.
 */
conair::apps::PreparedApp buildApp(const std::string &name,
                                   const std::string &source, bool harden,
                                   SpanLog &log, uint64_t op,
                                   std::string &err);

/** One Table 2 kernel: both builds and its campaign target. */
struct Kernel
{
    conair::apps::CampaignApp app;
    conair::explore::Target target;
};

/**
 * One set-up of campaign and repair: the ten kernels compiled, hardened
 * and horizon-calibrated (apps::campaignTarget).  Appends its wall time
 * to @p times.
 */
std::vector<Kernel> setUpKernels(SpanLog &log, std::vector<double> &times);

/** Deterministic build counts behind frontend.ir_insts and conair.*. */
struct BuildCounts
{
    uint64_t irInsts = 0;       ///< plain builds
    uint64_t hardenedInsts = 0; ///< hardened builds
    uint64_t sites = 0;         ///< failure sites hardened
    uint64_t reexecPoints = 0;  ///< static reexecution points

    bool operator==(const BuildCounts &) const = default;

    /** The counts of the kernels' builds. */
    static BuildCounts of(const std::vector<Kernel> &kernels);

    void add(const conair::ir::Module &plain,
             const conair::apps::PreparedApp &hardened);
    void addCounts(Report &rep) const;
    /** frontend.* and conair.* per-layer metrics; the times are medians
     *  over the compileMiniC / applyConAir spans in @p spans. */
    void emit(const std::vector<Span> &spans, Report &rep) const;
};

/// @{ The workloads.  Each fills @p rep and never throws on an
/// operation's failure: failures are counted in the report.
void runCampaignWorkload(const Settings &s, Report &rep);
void runRepairWorkload(const Settings &s, Report &rep);
void runHardenWorkload(const Settings &s, Report &rep);
/// @}

} // namespace perfbench
