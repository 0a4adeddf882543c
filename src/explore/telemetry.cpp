#include "explore/telemetry.h"

#include <algorithm>

#include "explore/campaign.h"
#include "support/json.h"
#include "support/str.h"

namespace conair::explore {

CampaignTelemetry::CampaignTelemetry(unsigned workers)
    : workerCount_(std::max(1u, workers)),
      workers_(std::make_unique<WorkerCell[]>(workerCount_)),
      start_(std::chrono::steady_clock::now())
{}

void
CampaignTelemetry::addPlanned(uint64_t schedules)
{
    total_.fetch_add(schedules, std::memory_order_relaxed);
}

void
CampaignTelemetry::noteSchedule(unsigned worker,
                                const std::string &target,
                                const ScheduleOutcome &o,
                                const CampaignOptions &opts)
{
    uint64_t done = done_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (worker < workerCount_)
        workers_[worker].schedules.fetch_add(
            1, std::memory_order_relaxed);
    if (o.ran && !o.unhardenedCorrect && !o.unhardenedInconclusive)
        failures_.fetch_add(1, std::memory_order_relaxed);

    uint64_t novel = coverage_.insertAll(o.coverage);

    std::lock_guard<std::mutex> lock(mutex_);
    if (!o.metrics.empty())
        metrics_.merge(o.metrics);
    if (opts.collectProfile) {
        const std::string policy =
            policyLabel(o.spec.policy, o.spec.depth);
        if (o.hasProfile)
            profiles_[target + "/" + policy].add(o.hardenedStats);
        forEachWallSpan(o, opts, [&](size_t leg, uint64_t us) {
            obs::prof::WallCell &c =
                wall_[target + ";" + policy + ";" + kWallLegs[leg]];
            c.kernel = target;
            c.policy = policy;
            c.leg = kWallLegs[leg];
            c.micros += us;
            ++c.spans;
        });
    }
    if (novel > 0)
        addGrowthSample(growth_, done, coverage_.distinctEdges());
}

void
CampaignTelemetry::noteCorpusSize(uint64_t n)
{
    corpus_.store(n, std::memory_order_relaxed);
}

void
CampaignTelemetry::addGuided(uint64_t corpusEntries,
                             uint64_t mutationsTried,
                             uint64_t mutationsNovel,
                             uint64_t freshTried, uint64_t freshNovel)
{
    guidedCorpus_.fetch_add(corpusEntries, std::memory_order_relaxed);
    guidedMutTried_.fetch_add(mutationsTried,
                              std::memory_order_relaxed);
    guidedMutNovel_.fetch_add(mutationsNovel,
                              std::memory_order_relaxed);
    guidedFreshTried_.fetch_add(freshTried, std::memory_order_relaxed);
    guidedFreshNovel_.fetch_add(freshNovel, std::memory_order_relaxed);
}

uint64_t
CampaignTelemetry::schedulesDone() const
{
    return done_.load(std::memory_order_relaxed);
}

std::string
CampaignTelemetry::statusJson() const
{
    double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    uint64_t done = done_.load(std::memory_order_relaxed);

    JsonWriter w(2);
    w.beginObject();
    w.key("campaign").beginObject();
    w.key("schedules_done").value(done);
    w.key("schedules_total")
        .value(total_.load(std::memory_order_relaxed));
    w.key("failures_found")
        .value(failures_.load(std::memory_order_relaxed));
    w.key("corpus_size").value(corpus_.load(std::memory_order_relaxed));
    w.key("elapsed_seconds").value(elapsed, "%.3f");
    w.key("schedules_per_sec")
        .value(elapsed > 0 ? double(done) / elapsed : 0.0, "%.1f");
    w.key("workers").beginArray();
    for (unsigned i = 0; i < workerCount_; ++i) {
        uint64_t n =
            workers_[i].schedules.load(std::memory_order_relaxed);
        w.beginObject();
        w.key("worker").value(uint64_t(i));
        w.key("schedules").value(n);
        w.key("schedules_per_sec")
            .value(elapsed > 0 ? double(n) / elapsed : 0.0, "%.1f");
        w.endObject();
    }
    w.endArray();
    w.endObject();

    {
        // Guided-search progress: corpus size and mutation yield
        // (novel mutated schedules / mutated schedules tried).
        uint64_t mutTried =
            guidedMutTried_.load(std::memory_order_relaxed);
        uint64_t mutNovel =
            guidedMutNovel_.load(std::memory_order_relaxed);
        w.key("guided").beginObject();
        w.key("corpus_entries")
            .value(guidedCorpus_.load(std::memory_order_relaxed));
        w.key("mutations_tried").value(mutTried);
        w.key("mutations_novel").value(mutNovel);
        w.key("fresh_tried")
            .value(guidedFreshTried_.load(std::memory_order_relaxed));
        w.key("fresh_novel")
            .value(guidedFreshNovel_.load(std::memory_order_relaxed));
        w.key("mutation_yield")
            .value(mutTried ? double(mutNovel) / double(mutTried) : 0.0,
                   "%.4f");
        w.endObject();
    }

    w.key("coverage").beginObject();
    w.key("distinct_edges").value(coverage_.distinctEdges());
    w.key("dropped_edges").value(coverage_.dropped());
    {
        std::lock_guard<std::mutex> lock(mutex_);
        w.key("growth").beginArray();
        for (const auto &[sched, edges] : growth_) {
            w.beginArray();
            w.value(sched);
            w.value(edges);
            w.endArray();
        }
        w.endArray();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
CampaignTelemetry::coverageJson() const
{
    std::vector<obs::cov::Edge> edges = coverage_.snapshot();
    JsonWriter w(2);
    w.beginObject();
    w.key("distinct_edges").value(uint64_t(edges.size()));
    w.key("dropped_edges").value(coverage_.dropped());
    obs::cov::writeEdgesJson(w, edges);
    w.endObject();
    return w.str();
}

std::string
CampaignTelemetry::profileJson() const
{
    obs::prof::ProfileDoc doc;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[group, agg] : profiles_)
            doc.phaseGroups.emplace_back(group, agg);
        for (const auto &[key, cell] : wall_)
            doc.wall.push_back(cell);
    }
    return obs::prof::speedscopeJson(doc, "campaign (live)");
}

std::string
CampaignTelemetry::prometheusText() const
{
    std::string out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out = metrics_.toPrometheusText();
    }
    double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();

    auto gauge = [&out](const char *name, const char *help,
                        uint64_t v) {
        out += strfmt("# HELP %s %s\n# TYPE %s gauge\n%s %llu\n", name,
                      help, name, name, (unsigned long long)v);
    };
    gauge("conair_campaign_schedules_total",
          "Schedules in the campaign matrix.",
          total_.load(std::memory_order_relaxed));
    gauge("conair_campaign_schedules_done",
          "Schedules finished so far.",
          done_.load(std::memory_order_relaxed));
    gauge("conair_campaign_failures_found",
          "Failing schedules discovered so far.",
          failures_.load(std::memory_order_relaxed));
    gauge("conair_campaign_corpus_size",
          "Minimised replay logs in the corpus.",
          corpus_.load(std::memory_order_relaxed));
    gauge("conair_guided_corpus_entries",
          "Mutation-corpus entries admitted by the guided search.",
          guidedCorpus_.load(std::memory_order_relaxed));
    gauge("conair_guided_mutations_tried",
          "Mutated schedules tried by the guided search.",
          guidedMutTried_.load(std::memory_order_relaxed));
    gauge("conair_guided_mutations_novel",
          "Mutated schedules that contributed novel coverage.",
          guidedMutNovel_.load(std::memory_order_relaxed));
    gauge("conair_guided_fresh_tried",
          "Fresh seed schedules tried by the guided search.",
          guidedFreshTried_.load(std::memory_order_relaxed));
    gauge("conair_guided_fresh_novel",
          "Fresh seed schedules that contributed novel coverage.",
          guidedFreshNovel_.load(std::memory_order_relaxed));
    gauge("conair_coverage_distinct_edges",
          "Distinct interleaving-coverage edges observed.",
          coverage_.distinctEdges());
    gauge("conair_coverage_dropped_edges",
          "Coverage edges lost to map overflow.",
          coverage_.dropped());
    out += strfmt("# HELP conair_campaign_elapsed_seconds Campaign "
                  "wall-clock time.\n"
                  "# TYPE conair_campaign_elapsed_seconds gauge\n"
                  "conair_campaign_elapsed_seconds %.3f\n",
                  elapsed);
    out += "# HELP conair_worker_schedules Schedules finished per "
           "worker.\n# TYPE conair_worker_schedules gauge\n";
    for (unsigned i = 0; i < workerCount_; ++i)
        out += strfmt(
            "conair_worker_schedules{worker=\"%u\"} %llu\n", i,
            (unsigned long long)workers_[i].schedules.load(
                std::memory_order_relaxed));
    return out;
}

} // namespace conair::explore
