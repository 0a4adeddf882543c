#include "obs/profile/profile.h"

#include "support/json.h"
#include "vm/stats.h"

namespace conair::obs::prof {

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::Dispatch: return "dispatch";
      case Phase::Memory: return "memory";
      case Phase::Sync: return "sync";
      case Phase::LockWait: return "lock_wait";
      case Phase::CheckpointSave: return "checkpoint_save";
      case Phase::Rollback: return "rollback";
      case Phase::Reexec: return "reexec";
      case Phase::Backoff: return "backoff";
    }
    return "?";
}

void
ProfileAgg::add(const vm::RunStats &run)
{
    for (size_t i = 0; i < kPhaseCount; ++i)
        ticks[i] += run.phaseTicks[i];
    ++runs;
    for (const vm::RecoveryEvent &ep : run.recoveries) {
        ++episodes;
        retries += ep.retries;
        reexecSteps += ep.reexecSteps;
        wastedSteps += ep.wastedSteps;
        backoffTicks += ep.backoffTicks;
        ckptDistanceTicks += ep.ckptDistanceTicks;
        episodesBySite[ep.siteTag] += 1;
        reexecBySite[ep.siteTag] += ep.reexecSteps;
    }
}

void
ProfileAgg::merge(const ProfileAgg &o)
{
    for (size_t i = 0; i < kPhaseCount; ++i)
        ticks[i] += o.ticks[i];
    runs += o.runs;
    episodes += o.episodes;
    retries += o.retries;
    reexecSteps += o.reexecSteps;
    wastedSteps += o.wastedSteps;
    backoffTicks += o.backoffTicks;
    ckptDistanceTicks += o.ckptDistanceTicks;
    for (const auto &[site, n] : o.episodesBySite)
        episodesBySite[site] += n;
    for (const auto &[site, n] : o.reexecBySite)
        reexecBySite[site] += n;
}

uint64_t
ProfileAgg::totalTicks() const
{
    uint64_t sum = 0;
    for (uint64_t t : ticks)
        sum += t;
    return sum;
}

void
ProfileAgg::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.key("runs").value(runs);
    w.key("total_ticks").value(totalTicks());
    w.key("phases").beginObject();
    for (size_t i = 0; i < kPhaseCount; ++i)
        w.key(phaseName(Phase(i))).value(ticks[i]);
    w.endObject();
    w.key("recovery_tax").beginObject();
    w.key("episodes").value(episodes);
    w.key("retries").value(retries);
    w.key("reexec_steps").value(reexecSteps);
    w.key("reexec_steps_per_episode")
        .value(reexecPerEpisode(), "%.3f");
    w.key("wasted_steps").value(wastedSteps);
    w.key("backoff_ticks").value(backoffTicks);
    w.key("ckpt_distance_ticks").value(ckptDistanceTicks);
    w.key("by_site").beginObject();
    for (const auto &[site, n] : episodesBySite) {
        w.key(site).beginObject();
        w.key("episodes").value(n);
        auto it = reexecBySite.find(site);
        w.key("reexec_steps")
            .value(it == reexecBySite.end() ? 0 : it->second);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    w.endObject();
}

} // namespace conair::obs::prof
