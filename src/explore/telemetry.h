/**
 * @file
 * Live campaign telemetry: the shared state behind the embedded
 * `/metrics`, `/status`, and `/coverage` endpoints while a campaign
 * runs (docs/OBSERVABILITY.md, "Live telemetry endpoints").
 *
 * A CampaignTelemetry is *observational only*: workers publish into
 * it after each finished schedule (atomic counters, a lock-free
 * CoverageMap merge, a short mutex-guarded metrics fold), and the
 * HTTP handlers render snapshots out of it.  Nothing a reader does
 * can perturb the campaign — the deterministic campaign report is
 * still aggregated from the results matrix in matrix order, exactly
 * as without telemetry.  The only live-vs-final caveat: the order in
 * which workers merge coverage is timing-dependent, so the *growth
 * curve* sampled here is a live view; the per-target curves in
 * BENCH_explore.json are recomputed deterministically in matrix
 * order (the final distinct-edge count and digest agree between the
 * two by set-union invariance).
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/coverage/coverage.h"
#include "obs/metrics.h"
#include "obs/profile/profile.h"
#include "obs/profile/profile_export.h"

namespace conair::explore {

struct ScheduleOutcome;

class CampaignTelemetry
{
  public:
    /** Per-worker cells for @p workers workers and the elapsed-time
     *  origin are fixed here, once: readers never race a re-arm. */
    explicit CampaignTelemetry(unsigned workers = 1);

    CampaignTelemetry(const CampaignTelemetry &) = delete;
    CampaignTelemetry &operator=(const CampaignTelemetry &) = delete;

    /** Adds @p schedules to the planned total (runCampaign its matrix,
     *  the guided stage its budgets).  Nothing resets a counter, so
     *  /status only moves forward across campaigns.  Thread-safe. */
    void addPlanned(uint64_t schedules);

    /** Publishes one finished schedule of target @p target from
     *  worker @p worker: counters, the outcome's coverage fold, its
     *  hardened-leg metrics, and its phase profile / wall spans (when
     *  the campaign collects profiles).  Thread-safe. */
    void noteSchedule(unsigned worker, const std::string &target,
                      const ScheduleOutcome &o);

    /** Replay-corpus size (set by the replay-corpus stage). */
    void noteCorpusSize(uint64_t n);

    /** Accumulates guided-search progress (runGuided publishes one
     *  delta per folded batch): mutation-corpus entries admitted,
     *  mutated / fresh schedules tried and how many of each were
     *  novel.  Campaign-wide — sums across targets.  Thread-safe. */
    void addGuided(uint64_t corpusEntries, uint64_t mutationsTried,
                   uint64_t mutationsNovel, uint64_t freshTried,
                   uint64_t freshNovel);

    /** The campaign-global live coverage map. */
    const obs::cov::CoverageMap &coverage() const { return coverage_; }
    obs::cov::CoverageMap &coverage() { return coverage_; }

    uint64_t schedulesDone() const;

    /** GET /status body: live campaign JSON (schedules done/total,
     *  failures, corpus size, per-worker schedules/sec, coverage
     *  growth curve samples). */
    std::string statusJson() const;

    /** GET /coverage body: the full edge dump as JSON. */
    std::string coverageJson() const;

    /** GET /metrics body: the live-merged MetricsRegistry in
     *  Prometheus text exposition plus campaign/coverage gauges. */
    std::string prometheusText() const;

    /** GET /profile body: the live phase profile + wall spans as
     *  speedscope JSON (one "kernel/policy" frame group per hardened
     *  profile merged so far).  Valid mid-campaign at any time. */
    std::string profileJson() const;

  private:
    struct WorkerCell
    {
        // Padded so neighbouring workers never share a cache line.
        alignas(64) std::atomic<uint64_t> schedules{0};
    };

    std::atomic<uint64_t> total_{0};
    std::atomic<uint64_t> done_{0};
    std::atomic<uint64_t> failures_{0};
    std::atomic<uint64_t> corpus_{0};

    // Guided-search progress (0 in blind campaigns).
    std::atomic<uint64_t> guidedCorpus_{0};
    std::atomic<uint64_t> guidedMutTried_{0};
    std::atomic<uint64_t> guidedMutNovel_{0};
    std::atomic<uint64_t> guidedFreshTried_{0};
    std::atomic<uint64_t> guidedFreshNovel_{0};
    const unsigned workerCount_;
    const std::unique_ptr<WorkerCell[]> workers_; ///< workerCount_ cells
    const std::chrono::steady_clock::time_point start_;

    obs::cov::CoverageMap coverage_;

    mutable std::mutex mutex_; ///< guards metrics_, growth_, profiles_,
                               ///< and wall_
    obs::MetricsRegistry metrics_;
    /** (schedule#, distinctEdges) samples, appended whenever a merge
     *  grew the map; thinned to stay bounded. */
    std::vector<std::pair<uint64_t, uint64_t>> growth_;
    /** Live phase profile per "kernel/policy" group (sorted map =
     *  deterministic group order in /profile). */
    std::map<std::string, obs::prof::ProfileAgg> profiles_;
    /** Live wall spans per (kernel, policy, leg). */
    std::map<std::string, obs::prof::WallCell> wall_;
};

} // namespace conair::explore
