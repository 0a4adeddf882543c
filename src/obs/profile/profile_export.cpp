#include "obs/profile/profile_export.h"

#include <algorithm>
#include <map>

#include "support/json.h"
#include "support/str.h"

namespace conair::obs::prof {

namespace {

/** Insertion-ordered frame table (speedscope indexes into it). */
struct FrameTable
{
    std::vector<std::string> names;
    std::map<std::string, uint64_t> index;

    uint64_t intern(const std::string &name)
    {
        auto it = index.find(name);
        if (it != index.end())
            return it->second;
        uint64_t i = names.size();
        names.push_back(name);
        index.emplace(name, i);
        return i;
    }
};

struct Sample
{
    std::vector<uint64_t> stack;
    uint64_t weight;
};

void
writeProfile(JsonWriter &w, const std::string &name,
             const char *unit, const std::vector<Sample> &samples)
{
    uint64_t total = 0;
    for (const Sample &s : samples)
        total += s.weight;
    w.beginObject();
    w.key("type").value("sampled");
    w.key("name").value(name);
    w.key("unit").value(unit);
    w.key("startValue").value(uint64_t(0));
    w.key("endValue").value(total);
    w.key("samples").beginArray();
    for (const Sample &s : samples) {
        w.beginArray();
        for (uint64_t f : s.stack)
            w.value(f);
        w.endArray();
    }
    w.endArray();
    w.key("weights").beginArray();
    for (const Sample &s : samples)
        w.value(s.weight);
    w.endArray();
    w.endObject();
}

} // namespace

std::string
speedscopeJson(const ProfileDoc &doc, const std::string &name)
{
    FrameTable frames;
    std::vector<Sample> phaseSamples;
    for (const auto &[label, agg] : doc.phaseGroups) {
        uint64_t g = frames.intern(label);
        for (size_t i = 0; i < kPhaseCount; ++i) {
            if (agg.ticks[i] == 0)
                continue;
            uint64_t p = frames.intern(phaseName(Phase(i)));
            phaseSamples.push_back({{g, p}, agg.ticks[i]});
        }
    }
    std::vector<Sample> wallSamples;
    for (const WallCell &c : doc.wall) {
        if (c.micros == 0)
            continue;
        wallSamples.push_back({{frames.intern(c.kernel),
                                frames.intern(c.policy),
                                frames.intern(c.leg)},
                               c.micros});
    }

    JsonWriter w(2);
    w.beginObject();
    w.key("$schema").value(
        "https://www.speedscope.app/file-format-schema.json");
    w.key("name").value(name);
    w.key("exporter").value("conair-profile");
    w.key("activeProfileIndex").value(uint64_t(0));
    w.key("shared").beginObject();
    w.key("frames").beginArray();
    for (const std::string &f : frames.names) {
        w.beginObject();
        w.key("name").value(f);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.key("profiles").beginArray();
    writeProfile(w, "phases (virtual ticks)", "none", phaseSamples);
    if (!wallSamples.empty())
        writeProfile(w, "campaign wall clock", "microseconds",
                     wallSamples);
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
foldedStacks(const ProfileDoc &doc)
{
    std::string out;
    for (const auto &[label, agg] : doc.phaseGroups)
        for (size_t i = 0; i < kPhaseCount; ++i)
            if (agg.ticks[i] > 0)
                out += strfmt("%s;%s %llu\n", label.c_str(),
                              phaseName(Phase(i)),
                              (unsigned long long)agg.ticks[i]);
    for (const WallCell &c : doc.wall)
        if (c.micros > 0)
            out += strfmt("wall;%s;%s;%s %llu\n", c.kernel.c_str(),
                          c.policy.c_str(), c.leg.c_str(),
                          (unsigned long long)c.micros);
    return out;
}

std::string
hotPhaseTable(const ProfileDoc &doc, size_t topN)
{
    ProfileAgg all;
    for (const auto &[label, agg] : doc.phaseGroups)
        all.merge(agg);

    struct Row
    {
        Phase phase;
        uint64_t ticks;
    };
    std::vector<Row> rows;
    for (size_t i = 0; i < kPhaseCount; ++i)
        if (all.ticks[i] > 0)
            rows.push_back({Phase(i), all.ticks[i]});
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row &a, const Row &b) {
                         return a.ticks > b.ticks;
                     });
    if (rows.size() > topN)
        rows.resize(topN);

    uint64_t total = all.totalTicks();
    std::string out = strfmt("%-16s %14s %7s\n", "phase", "ticks",
                             "share");
    for (const Row &r : rows)
        out += strfmt("%-16s %14llu %6.1f%%\n", phaseName(r.phase),
                      (unsigned long long)r.ticks,
                      total ? 100.0 * double(r.ticks) / double(total)
                            : 0.0);
    out += strfmt("%-16s %14llu\n", "total", (unsigned long long)total);
    out += strfmt(
        "recovery tax: %llu episodes, %llu retries, %.1f reexec "
        "steps/episode, %llu wasted steps, %llu backoff ticks\n",
        (unsigned long long)all.episodes,
        (unsigned long long)all.retries, all.reexecPerEpisode(),
        (unsigned long long)all.wastedSteps,
        (unsigned long long)all.backoffTicks);
    return out;
}

bool
writeProfileArtifacts(const ProfileDoc &doc, const std::string &name,
                      const std::string &path, std::FILE *log)
{
    return writeFile(path, speedscopeJson(doc, name) + "\n", log) &&
           writeFile(withExtension(path, ".folded"), foldedStacks(doc),
                     log);
}

} // namespace conair::obs::prof
