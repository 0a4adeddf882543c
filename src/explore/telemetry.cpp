#include "explore/telemetry.h"

#include <algorithm>

#include "explore/campaign.h"
#include "support/json.h"
#include "support/prom.h"
#include "support/str.h"

namespace conair::explore {

CampaignTelemetry::CampaignTelemetry(unsigned workers)
    : start_(std::chrono::steady_clock::now()),
      workers_(std::max(1u, workers), 0)
{}

double
CampaignTelemetry::elapsedSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

void
CampaignTelemetry::addPlanned(uint64_t schedules)
{
    std::lock_guard<std::mutex> lock(mutex_);
    total_ += schedules;
}

void
CampaignTelemetry::noteSchedule(unsigned worker,
                                const std::string &target,
                                const ScheduleOutcome &o,
                                const CampaignOptions &opts)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++done_;
    if (worker < workers_.size())
        ++workers_[worker];
    failures_ += isFailingSchedule(o);
    bool novel = false;
    for (const obs::cov::Edge &e : o.coverage)
        novel |= edges_.try_emplace(e.key, e).second;
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
    if (novel)
        addGrowthSample(growth_, done_, edges_.size());
}

void
CampaignTelemetry::noteCorpusSize(uint64_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    corpus_ = n;
}

void
CampaignTelemetry::addGuided(uint64_t corpusEntries,
                             uint64_t mutationsTried,
                             uint64_t mutationsNovel,
                             uint64_t freshTried, uint64_t freshNovel)
{
    std::lock_guard<std::mutex> lock(mutex_);
    guidedCorpus_ += corpusEntries;
    guidedMutTried_ += mutationsTried;
    guidedMutNovel_ += mutationsNovel;
    guidedFreshTried_ += freshTried;
    guidedFreshNovel_ += freshNovel;
}

std::vector<obs::cov::Edge>
CampaignTelemetry::coverageEdges() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<obs::cov::Edge> out;
    out.reserve(edges_.size());
    for (const auto &[key, e] : edges_)
        out.push_back(e);
    return out;
}

uint64_t
CampaignTelemetry::schedulesDone() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return done_;
}

std::string
CampaignTelemetry::statusJson() const
{
    const double elapsed = elapsedSeconds();
    auto perSec = [elapsed](uint64_t n) {
        return elapsed > 0 ? double(n) / elapsed : 0.0;
    };
    std::lock_guard<std::mutex> lock(mutex_);

    JsonWriter w(2);
    w.beginObject();
    w.key("campaign").beginObject();
    w.key("schedules_done").value(done_);
    w.key("schedules_total").value(total_);
    w.key("failures_found").value(failures_);
    w.key("corpus_size").value(corpus_);
    w.key("elapsed_seconds").value(elapsed, "%.3f");
    w.key("schedules_per_sec").value(perSec(done_), "%.1f");
    w.key("workers").beginArray();
    for (size_t i = 0; i < workers_.size(); ++i) {
        w.beginObject();
        w.key("worker").value(uint64_t(i));
        w.key("schedules").value(workers_[i]);
        w.key("schedules_per_sec").value(perSec(workers_[i]), "%.1f");
        w.endObject();
    }
    w.endArray();
    w.endObject();

    // Guided-search progress: corpus size and mutation yield (novel
    // mutated schedules / mutated schedules tried).
    w.key("guided").beginObject();
    w.key("corpus_entries").value(guidedCorpus_);
    w.key("mutations_tried").value(guidedMutTried_);
    w.key("mutations_novel").value(guidedMutNovel_);
    w.key("fresh_tried").value(guidedFreshTried_);
    w.key("fresh_novel").value(guidedFreshNovel_);
    w.key("mutation_yield")
        .value(guidedMutTried_ ? double(guidedMutNovel_) /
                                     double(guidedMutTried_)
                               : 0.0,
               "%.4f");
    w.endObject();

    w.key("coverage").beginObject();
    w.key("distinct_edges").value(uint64_t(edges_.size()));
    w.key("growth").beginArray();
    for (const auto &[sched, edges] : growth_) {
        w.beginArray();
        w.value(sched);
        w.value(edges);
        w.endArray();
    }
    w.endArray();
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
CampaignTelemetry::coverageJson() const
{
    std::vector<obs::cov::Edge> edges = coverageEdges();
    JsonWriter w(2);
    w.beginObject();
    w.key("distinct_edges").value(uint64_t(edges.size()));
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
    const double elapsed = elapsedSeconds();
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = metrics_.toPrometheusText();
    auto gauge = [&out](const char *name, const char *help,
                        uint64_t v) {
        promFamily(out, name, "gauge", help, v);
    };
    gauge("conair_campaign_schedules_total",
          "Schedules in the campaign matrix.", total_);
    gauge("conair_campaign_schedules_done",
          "Schedules finished so far.", done_);
    gauge("conair_campaign_failures_found",
          "Failing schedules discovered so far.", failures_);
    gauge("conair_campaign_corpus_size",
          "Minimised replay logs in the corpus.", corpus_);
    gauge("conair_guided_corpus_entries",
          "Mutation-corpus entries admitted by the guided search.",
          guidedCorpus_);
    gauge("conair_guided_mutations_tried",
          "Mutated schedules tried by the guided search.",
          guidedMutTried_);
    gauge("conair_guided_mutations_novel",
          "Mutated schedules that contributed novel coverage.",
          guidedMutNovel_);
    gauge("conair_guided_fresh_tried",
          "Fresh seed schedules tried by the guided search.",
          guidedFreshTried_);
    gauge("conair_guided_fresh_novel",
          "Fresh seed schedules that contributed novel coverage.",
          guidedFreshNovel_);
    gauge("conair_coverage_distinct_edges",
          "Distinct interleaving-coverage edges observed.",
          edges_.size());
    promFamily(out, "conair_campaign_elapsed_seconds", "gauge",
               "Campaign wall-clock time.");
    out += strfmt("conair_campaign_elapsed_seconds %.3f\n", elapsed);
    promFamily(out, "conair_worker_schedules", "gauge",
               "Schedules finished per worker.");
    for (size_t i = 0; i < workers_.size(); ++i)
        out += strfmt("conair_worker_schedules{worker=\"%zu\"} %llu\n", i,
                      (unsigned long long)workers_[i]);
    return out;
}

} // namespace conair::explore
