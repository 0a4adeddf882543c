/**
 * @file
 * Live campaign telemetry: the shared state behind the embedded
 * `/metrics`, `/status`, `/coverage` and `/profile` endpoints while a
 * campaign runs (docs/OBSERVABILITY.md, "Live telemetry endpoints").
 *
 * A CampaignTelemetry is a plain fold under one mutex: a worker takes
 * it once per finished schedule to fold the outcome in (counters, the
 * schedule's coverage edges, its hardened-leg metrics and profile),
 * and the HTTP handlers take it to render.  It is *observational
 * only*: nothing a reader does can perturb the campaign — the
 * deterministic campaign report is still aggregated from the results
 * matrix in matrix order, exactly as without telemetry.  The only
 * live-vs-final caveat: workers fold in a timing-dependent order, so
 * the *growth curve* sampled here is a live view; the per-target
 * curves in BENCH_explore.json are recomputed deterministically in
 * matrix order (the final distinct-edge count and digest agree
 * between the two by set-union invariance).
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/coverage/coverage.h"
#include "obs/metrics.h"
#include "obs/profile/profile.h"
#include "obs/profile/profile_export.h"

namespace conair::explore {

struct CampaignOptions;
struct ScheduleOutcome;

class CampaignTelemetry
{
  public:
    /** Per-worker counters for @p workers workers and the
     *  elapsed-time origin are fixed here, once. */
    explicit CampaignTelemetry(unsigned workers = 1);

    CampaignTelemetry(const CampaignTelemetry &) = delete;
    CampaignTelemetry &operator=(const CampaignTelemetry &) = delete;

    /** Adds @p schedules to the planned total (runCampaign its matrix,
     *  the guided stage its budgets).  Nothing resets a counter, so
     *  /status only moves forward across campaigns.  Thread-safe. */
    void addPlanned(uint64_t schedules);

    /** Publishes one finished schedule of target @p target from
     *  worker @p worker, run under @p opts: counters, the outcome's
     *  coverage fold, its hardened-leg metrics, and its phase profile /
     *  wall spans (when the campaign collects profiles).
     *  Thread-safe. */
    void noteSchedule(unsigned worker, const std::string &target,
                      const ScheduleOutcome &o,
                      const CampaignOptions &opts);

    /** Replay-corpus size (set by the replay-corpus stage). */
    void noteCorpusSize(uint64_t n);

    /** Accumulates guided-search progress (runGuided publishes one
     *  delta per folded batch): mutation-corpus entries admitted,
     *  mutated / fresh schedules tried and how many of each were
     *  novel.  Campaign-wide — sums across targets.  Thread-safe. */
    void addGuided(uint64_t corpusEntries, uint64_t mutationsTried,
                   uint64_t mutationsNovel, uint64_t freshTried,
                   uint64_t freshNovel);

    /** The live edge union over every schedule folded so far,
     *  sorted by key. */
    std::vector<obs::cov::Edge> coverageEdges() const;

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
    double elapsedSeconds() const;

    const std::chrono::steady_clock::time_point start_;

    mutable std::mutex mutex_; ///< guards every member below
    uint64_t total_ = 0;
    uint64_t done_ = 0;
    uint64_t failures_ = 0;
    uint64_t corpus_ = 0;

    // Guided-search progress (0 in blind campaigns).
    uint64_t guidedCorpus_ = 0;
    uint64_t guidedMutTried_ = 0;
    uint64_t guidedMutNovel_ = 0;
    uint64_t guidedFreshTried_ = 0;
    uint64_t guidedFreshNovel_ = 0;

    std::vector<uint64_t> workers_; ///< schedules finished per worker
    /** The live edge union, keyed (so sorted) by edge key. */
    std::map<uint64_t, obs::cov::Edge> edges_;
    obs::MetricsRegistry metrics_;
    /** (schedule#, distinctEdges) samples, appended whenever a fold
     *  grew the edge union; thinned to stay bounded. */
    std::vector<std::pair<uint64_t, uint64_t>> growth_;
    /** Live phase profile per "kernel/policy" group (sorted map =
     *  deterministic group order in /profile). */
    std::map<std::string, obs::prof::ProfileAgg> profiles_;
    /** Live wall spans per (kernel, policy, leg). */
    std::map<std::string, obs::prof::WallCell> wall_;
};

} // namespace conair::explore
