/**
 * @file
 * RecoveryReport exporters: the human-readable report (with an ASCII
 * two-thread interleaving diagram per episode) and the JSON document
 * the campaign runner embeds in BENCH_explore.json.
 */
#include "obs/postmortem/diagnosis.h"

#include <algorithm>

#include "support/json.h"
#include "support/str.h"

namespace conair::obs::pm {

namespace {

/** One row of the two-column interleaving diagram. */
struct DiagramRow
{
    uint64_t seq;
    bool left; ///< failing thread's column
    std::string text;
};

constexpr size_t kCol = 34;

std::string
padded(const std::string &s)
{
    std::string out = s.substr(0, kCol);
    out.resize(kCol, ' ');
    return out;
}

std::string
accessLine(const EpisodeReport &ep, const AccessRef &a,
           const char *role)
{
    std::string op;
    if (ep.verdict == Verdict::Deadlock)
        op = a.tid == ep.tid ? strfmt("block on `%s`",
                                      ep.variable.c_str())
                             : strfmt("acquire `%s`",
                                      ep.variable.c_str());
    else
        op = strfmt("%s %s %s %s", a.isStore ? "store" : "load",
                    ep.variable.c_str(), a.isStore ? "<-" : "->",
                    bitsStr(a.value).c_str());
    return strfmt("[seq %llu] %s%s", (unsigned long long)a.seq,
                  op.c_str(), role);
}

/**
 * The ASCII interleaving diagram: the failing thread on the left, the
 * racing thread on the right, rows in global seq order, with the
 * scheduler-switch window rendered between the pair.
 */
std::string
renderDiagram(const EpisodeReport &ep)
{
    if (!ep.failingAccess.valid || !ep.racingAccess.valid)
        return {};

    std::vector<DiagramRow> rows;
    rows.push_back({ep.failingAccess.seq, true,
                    accessLine(ep, ep.failingAccess, "")});
    if (!ep.failingAccess.tag.empty())
        rows.push_back({ep.failingAccess.seq, true,
                        "          @" + ep.failingAccess.tag});
    rows.push_back({ep.racingAccess.seq, false,
                    accessLine(ep, ep.racingAccess, "")});
    if (!ep.racingAccess.tag.empty())
        rows.push_back({ep.racingAccess.seq, false,
                        "          @" + ep.racingAccess.tag});
    std::stable_sort(rows.begin(), rows.end(),
                     [](const DiagramRow &a, const DiagramRow &b) {
                         return a.seq < b.seq;
                     });

    std::string out;
    out += "    " + padded(strfmt("t%u (failing)", ep.tid)) + " | " +
           strfmt("t%u (racing)", ep.racingAccess.tid) + "\n";
    out += "    " + std::string(kCol, '-') + "-+-" +
           std::string(kCol, '-') + "\n";

    uint64_t pairLo = std::min(ep.failingAccess.seq,
                               ep.racingAccess.seq);
    uint64_t pairHi = std::max(ep.failingAccess.seq,
                               ep.racingAccess.seq);
    bool windowDrawn = false;
    for (const DiagramRow &r : rows) {
        if (!windowDrawn && r.seq == pairHi && pairLo != pairHi) {
            std::string w = strfmt(
                "~~~ %llu scheduler switch%s ~~~",
                (unsigned long long)ep.switchWindow,
                ep.switchWindow == 1 ? "" : "es");
            size_t width = 2 * kCol + 3;
            size_t lead = w.size() < width ? (width - w.size()) / 2 : 0;
            out += "    " + std::string(lead, ' ') + w + "\n";
            windowDrawn = true;
        }
        if (r.left)
            out += "    " + padded(r.text) + " |\n";
        else
            out += "    " + std::string(kCol, ' ') + " | " + r.text +
                   "\n";
    }
    if (ep.recovered)
        out += "    " +
               padded(strfmt("[recovery: %llu retr%s, %.1f us]",
                             (unsigned long long)ep.retries,
                             ep.retries == 1 ? "y" : "ies",
                             double(ep.endClock - ep.startClock) * 0.1)) +
               " |\n";
    else
        out += "    " + padded("[terminal failure: not recovered]") +
               " |\n";
    return out;
}

void
writeAccessJson(JsonWriter &w, const AccessRef &a)
{
    w.beginObject();
    w.key("seq").value(a.seq);
    w.key("clock").value(a.clock);
    w.key("step").value(a.step);
    w.key("tid").value(a.tid);
    w.key("op").value(a.isStore ? "store" : "load");
    w.key("seg").value(uint64_t(cellSeg(a.addr)));
    w.key("block").value(uint64_t(cellBlock(a.addr)));
    w.key("offset").value(int64_t(cellOffset(a.addr)));
    w.key("value").value(a.value);
    if (!a.tag.empty())
        w.key("tag").value(a.tag);
    w.endObject();
}

} // namespace

std::string
renderText(const RecoveryReport &r)
{
    std::string out;
    out += strfmt("=== recovery diagnosis: %s", r.program.c_str());
    if (!r.schedule.empty())
        out += " [" + r.schedule + "]";
    out += " ===\n";
    out += strfmt("trace: %llu events (%llu dropped), %llu shared "
                  "accesses, %zu episode%s\n",
                  (unsigned long long)r.events,
                  (unsigned long long)r.dropped,
                  (unsigned long long)r.sharedAccessesSeen,
                  r.episodes.size(),
                  r.episodes.size() == 1 ? "" : "s");
    if (r.dropped)
        out += "warning: ring wraparound dropped events; racy pairs "
               "may be incomplete (raise the recorder capacity)\n";

    size_t n = 0;
    for (const EpisodeReport &ep : r.episodes) {
        out += strfmt("\nepisode %zu: %s  t%u  %s", ++n,
                      ep.siteTag.empty() ? "(untagged)"
                                         : ep.siteTag.c_str(),
                      ep.tid,
                      ep.recovered
                          ? strfmt("recovered after %llu retr%s",
                                   (unsigned long long)ep.retries,
                                   ep.retries == 1 ? "y" : "ies")
                                .c_str()
                          : "NOT recovered (terminal failure)");
        out += "\n";
        out += strfmt("  failure class: %s\n",
                      ca::failureKindName(ep.kind));
        out += strfmt("  verdict: %s", verdictName(ep.verdict));
        if (!ep.variable.empty())
            out += strfmt(" on `%s`", ep.variable.c_str());
        if (ep.sliceInterproc)
            out += "  (slice crossed a call boundary; dynamic pair)";
        out += "\n";
        if (!ep.evidence.empty())
            out += "  evidence: " + ep.evidence + "\n";
        if (ep.failingAccess.valid && ep.racingAccess.valid) {
            out += strfmt("  racy pair (window = %llu scheduler "
                          "switch%s):\n\n",
                          (unsigned long long)ep.switchWindow,
                          ep.switchWindow == 1 ? "" : "es");
            out += renderDiagram(ep);
        } else {
            out += "  racy pair: unresolved (no diagnosis-mode shared "
                   "accesses in the retained trace?)\n";
        }
    }
    if (r.episodes.empty())
        out += "\n(no recovery episodes or failures in the trace)\n";
    return out;
}

void
writeJson(JsonWriter &w, const RecoveryReport &r)
{
    w.beginObject();
    w.key("program").value(r.program);
    if (!r.schedule.empty())
        w.key("schedule").value(r.schedule);
    w.key("events").value(r.events);
    w.key("dropped").value(r.dropped);
    w.key("shared_accesses").value(r.sharedAccessesSeen);
    w.key("episodes").beginArray();
    for (const EpisodeReport &ep : r.episodes) {
        w.beginObject();
        w.key("tid").value(ep.tid);
        w.key("site").value(ep.siteTag);
        w.key("failure_class").value(ca::failureKindName(ep.kind));
        w.key("recovered").value(ep.recovered);
        w.key("retries").value(ep.retries);
        w.key("start_clock").value(ep.startClock);
        w.key("end_clock").value(ep.endClock);
        w.key("verdict").value(verdictName(ep.verdict));
        w.key("variable").value(ep.variable);
        w.key("cell_offset").value(ep.cellOffset);
        w.key("switch_window").value(ep.switchWindow);
        w.key("slice_interproc").value(ep.sliceInterproc);
        w.key("evidence").value(ep.evidence);
        if (ep.failingAccess.valid) {
            w.key("failing_access");
            writeAccessJson(w, ep.failingAccess);
        }
        if (ep.racingAccess.valid) {
            w.key("racing_access");
            writeAccessJson(w, ep.racingAccess);
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

std::string
toJson(const RecoveryReport &r, int indent)
{
    JsonWriter w(indent);
    writeJson(w, r);
    return w.str();
}

} // namespace conair::obs::pm
