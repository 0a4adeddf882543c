#include "explore/guided.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_set>

#include "explore/telemetry.h"
#include "support/fnv.h"
#include "support/str.h"

namespace conair::explore {

namespace {

using vm::SchedPolicy;

/** Base seed of the per-round mutation RNG streams. */
constexpr uint64_t kMutationSeed = 1;

bool
takesPoints(SchedPolicy p)
{
    return p == SchedPolicy::Pct || p == SchedPolicy::PreemptBound;
}

/** Canonical points: sorted, duplicate-free (the token grammar wants
 *  strictly increasing), all >= 1. */
void
canonicalize(std::vector<uint64_t> &pts)
{
    for (uint64_t &p : pts)
        if (p == 0)
            p = 1;
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
}

} // namespace

const char *
mutOpName(MutOp op)
{
    switch (op) {
      case MutOp::Nudge: return "nudge";
      case MutOp::Add: return "add";
      case MutOp::Drop: return "drop";
      case MutOp::DepthBump: return "depth";
      case MutOp::CrossPolicy: return "policy";
      case MutOp::NearAdd: return "near";
    }
    return "unknown";
}

bool
mutOpFromName(const std::string &name, MutOp &out)
{
    for (size_t i = 0; i < kMutOpCount; ++i)
        if (name == mutOpName(MutOp(i))) {
            out = MutOp(i);
            return true;
        }
    return false;
}

std::vector<uint64_t>
derivePoints(const ScheduleSpec &s, uint64_t horizon)
{
    if (s.points.empty())
        return vm::sampleSchedPoints(s.policy, s.seed, s.depth, horizon);
    std::vector<uint64_t> pts = s.points;
    std::sort(pts.begin(), pts.end());
    return pts;
}

bool
mutateSpec(const CorpusEntry &e, MutOp op, uint64_t horizon,
           uint64_t nudgeMax, Rng &rng, ScheduleSpec &out)
{
    const ScheduleSpec &s = e.spec;
    if (!takesPoints(s.policy))
        return false;
    std::vector<uint64_t> pts =
        s.points.empty() ? derivePoints(s, horizon) : s.points;
    horizon = std::max<uint64_t>(horizon, 1);
    nudgeMax = std::max<uint64_t>(nudgeMax, 1);
    out = s;

    switch (op) {
      case MutOp::Nudge: {
        if (pts.empty())
            return false;
        size_t i = size_t(rng.range(pts.size()));
        uint64_t delta = 1 + rng.range(nudgeMax);
        bool up = rng.chance(1, 2);
        pts[i] = up ? pts[i] + delta
                    : (pts[i] > delta ? pts[i] - delta : 1);
        break;
      }
      case MutOp::Add: {
        pts.push_back(1 + rng.range(horizon));
        // PCT: one more point wants one more priority band; keeping
        // depth = points + 1 preserves the per-point drop structure.
        out.depth = s.depth + 1;
        break;
      }
      case MutOp::Drop: {
        if (pts.size() < 2)
            return false;
        pts.erase(pts.begin() + long(rng.range(pts.size())));
        out.depth = s.depth > 1 ? s.depth - 1 : 1;
        break;
      }
      case MutOp::DepthBump: {
        // Only PCT interprets the depth once points are pinned (it
        // shapes the priority bands each point drops into); for
        // PreemptBound the bound is the point list itself.
        if (s.policy != SchedPolicy::Pct)
            return false;
        out.depth = s.depth + 1;
        break;
      }
      case MutOp::CrossPolicy: {
        if (pts.empty())
            return false;
        if (s.policy == SchedPolicy::Pct) {
            out.policy = SchedPolicy::PreemptBound;
            out.depth = uint32_t(pts.size());
        } else {
            out.policy = SchedPolicy::Pct;
            out.depth = uint32_t(pts.size()) + 1;
        }
        break;
      }
      case MutOp::NearAdd: {
        // The two-window probe: a second preemption shortly after an
        // existing one.  Uniform adds sample this neighbourhood with
        // probability ~nudgeMax/horizon per try — too thin to find
        // double-window bugs (a partially-published flag observed by
        // a thread that is itself mid-publication).
        if (pts.empty())
            return false;
        uint64_t anchor = pts[size_t(rng.range(pts.size()))];
        uint64_t delta = 1 + rng.range(4 * nudgeMax);
        bool up = rng.chance(3, 4); // windows mostly open forward
        pts.push_back(up ? anchor + delta
                         : (anchor > delta ? anchor - delta : 1));
        out.depth = s.depth + 1; // same band growth as Add
        break;
      }
    }

    canonicalize(pts);
    if (pts.empty() || out.depth > kMaxScheduleDepth)
        return false; // the token would no longer parse
    out.points = std::move(pts);
    return true;
}

//
// Corpus serialisation — same strictness contract as the replay log.
//

uint64_t
Corpus::totalEnergy() const
{
    uint64_t total = 0;
    for (const CorpusEntry &e : entries)
        total += std::max<uint64_t>(e.energy(), 1);
    return total;
}

std::string
Corpus::serialize() const
{
    std::string out = "conair-corpus v1\n";
    out += "program " + (program.empty() ? "-" : program) + "\n";
    out += strfmt("entries %llu\n", (unsigned long long)entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
        const CorpusEntry &e = entries[i];
        out += strfmt("entry %llu\n", (unsigned long long)i);
        out += "token " + e.spec.token() + "\n";
        out += strfmt("ordinal %llu\n", (unsigned long long)e.ordinal);
        out += strfmt("racy %llu\n", (unsigned long long)e.racy);
        out += "op " + e.op + "\n";
        out += "parent " + (e.parent.empty() ? "-" : e.parent) + "\n";
        out += strfmt("edges %llu",
                      (unsigned long long)e.novelEdges.size());
        for (uint64_t k : e.novelEdges)
            out += strfmt(" %016llx", (unsigned long long)k);
        out += "\n";
    }
    out += "end\n";
    return out;
}

uint64_t
Corpus::digest() const
{
    // Skip the program header so corpora of renamed targets with the
    // same search compare equal; everything else is covered.
    std::string text = serialize();
    size_t firstNl = text.find('\n');
    size_t secondNl = text.find('\n', firstNl + 1);
    uint64_t h = fnvBytes(kFnvOffset, text.data(), firstNl + 1);
    return fnvBytes(h, text.data() + secondNl + 1,
                    text.size() - secondNl - 1);
}

namespace {

struct LineReader
{
    std::istringstream is;
    size_t lineNo = 0;
    std::string line;

    explicit LineReader(const std::string &text) : is(text) {}

    bool
    next()
    {
        if (!std::getline(is, line))
            return false;
        ++lineNo;
        return true;
    }
};

bool
parseHex64Strict(const std::string &s, uint64_t &out)
{
    if (s.size() != 16)
        return false;
    uint64_t v = 0;
    for (char c : s) {
        uint64_t d;
        if (c >= '0' && c <= '9')
            d = uint64_t(c - '0');
        else if (c >= 'a' && c <= 'f')
            d = uint64_t(c - 'a') + 10;
        else
            return false;
        v = (v << 4) | d;
    }
    out = v;
    return true;
}

/** Splits on single spaces; empty items (doubled spaces, leading /
 *  trailing space) make the line malformed. */
bool
splitFields(const std::string &line, std::vector<std::string> &out)
{
    out.clear();
    size_t start = 0;
    while (start <= line.size()) {
        size_t sp = line.find(' ', start);
        size_t end = sp == std::string::npos ? line.size() : sp;
        if (end == start)
            return false;
        out.push_back(line.substr(start, end - start));
        if (sp == std::string::npos)
            break;
        start = sp + 1;
    }
    return !out.empty();
}

} // namespace

bool
parseCorpus(const std::string &text, Corpus &out, std::string &err)
{
    out = Corpus{};
    LineReader r(text);

    auto fail = [&](const std::string &msg) {
        err = strfmt("corpus line %llu: %s",
                     (unsigned long long)r.lineNo, msg.c_str());
        return false;
    };

    if (!r.next())
        return fail("missing header");
    if (r.line != "conair-corpus v1") {
        if (r.line.rfind("conair-corpus ", 0) == 0)
            return fail(strfmt("unsupported version '%s' (want v1)",
                               r.line.substr(14).c_str()));
        return fail("not a conair corpus (bad header)");
    }

    std::vector<std::string> f;

    if (!r.next() || !splitFields(r.line, f) || f.size() != 2 ||
        f[0] != "program")
        return fail("expected 'program <name>'");
    out.program = f[1] == "-" ? "" : f[1];

    uint64_t count = 0;
    if (!r.next() || !splitFields(r.line, f) || f.size() != 2 ||
        f[0] != "entries" || !parseU64(f[1], count))
        return fail("expected 'entries <count>'");

    out.entries.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        CorpusEntry e;

        uint64_t idx = 0;
        if (!r.next() || !splitFields(r.line, f) || f.size() != 2 ||
            f[0] != "entry" || !parseU64(f[1], idx))
            return fail(strfmt("expected 'entry %llu'",
                               (unsigned long long)i));
        if (idx != i)
            return fail(strfmt("entry index %llu out of order "
                               "(expected %llu)",
                               (unsigned long long)idx,
                               (unsigned long long)i));

        if (!r.next() || !splitFields(r.line, f) || f.size() != 2 ||
            f[0] != "token")
            return fail("expected 'token <schedule>'");
        std::string tokErr;
        if (!parseScheduleToken(f[1], e.spec, tokErr))
            return fail("bad schedule token: " + tokErr);

        if (!r.next() || !splitFields(r.line, f) || f.size() != 2 ||
            f[0] != "ordinal" || !parseU64(f[1], e.ordinal))
            return fail("expected 'ordinal <n>'");
        if (e.ordinal == 0)
            return fail("ordinal must be >= 1");

        if (!r.next() || !splitFields(r.line, f) || f.size() != 2 ||
            f[0] != "racy" || !parseU64(f[1], e.racy))
            return fail("expected 'racy <n>'");

        if (!r.next() || !splitFields(r.line, f) || f.size() != 2 ||
            f[0] != "op")
            return fail("expected 'op <name>'");
        MutOp op;
        if (f[1] != "fresh" && !mutOpFromName(f[1], op))
            return fail("unknown mutation operator '" + f[1] + "'");
        e.op = f[1];

        if (!r.next() || !splitFields(r.line, f) || f.size() != 2 ||
            f[0] != "parent")
            return fail("expected 'parent <token|->'");
        if (f[1] != "-") {
            ScheduleSpec parentSpec;
            if (!parseScheduleToken(f[1], parentSpec, tokErr))
                return fail("bad parent token: " + tokErr);
            e.parent = f[1];
        }

        uint64_t edgeCount = 0;
        if (!r.next() || !splitFields(r.line, f) || f.size() < 2 ||
            f[0] != "edges" || !parseU64(f[1], edgeCount))
            return fail("expected 'edges <count> <key>...'");
        if (f.size() != 2 + edgeCount)
            return fail(strfmt("edge count %llu does not match %llu "
                               "keys on the line",
                               (unsigned long long)edgeCount,
                               (unsigned long long)(f.size() - 2)));
        e.novelEdges.reserve(edgeCount);
        for (uint64_t k = 0; k < edgeCount; ++k) {
            uint64_t key = 0;
            if (!parseHex64Strict(f[2 + k], key))
                return fail("bad edge key '" + f[2 + k] +
                            "' (want 16 lowercase hex digits)");
            if (!e.novelEdges.empty() && key <= e.novelEdges.back())
                return fail("edge keys must be strictly increasing");
            e.novelEdges.push_back(key);
        }

        out.entries.push_back(std::move(e));
    }

    if (!r.next() || r.line != "end")
        return fail("expected 'end'");
    if (r.next())
        return fail("trailing content after 'end'");

    err.clear();
    return true;
}

bool
loadCorpus(const std::string &path, Corpus &out, std::string &err)
{
    std::string text;
    return readFile(path, text, err) && parseCorpus(text, out, err);
}

bool
saveCorpus(const std::string &path, const Corpus &c, std::string &err)
{
    return writeFile(path, c.serialize(), err);
}

//
// The guided driver.
//

namespace {

/** One generated-but-not-yet-run schedule of a batch. */
struct GenSchedule
{
    ScheduleSpec spec;
    bool fresh = true;
    MutOp op = MutOp::Nudge; ///< meaningful when !fresh
    std::string parent;      ///< parent entry token when !fresh
};

/** Energy-weighted corpus pick (total > 0, corpus non-empty). */
const CorpusEntry &
pickParent(const Corpus &corpus, uint64_t total, Rng &rng)
{
    uint64_t roll = rng.range(total);
    for (const CorpusEntry &e : corpus.entries) {
        uint64_t w = std::max<uint64_t>(e.energy(), 1);
        if (roll < w)
            return e;
        roll -= w;
    }
    return corpus.entries.back();
}

} // namespace

GuidedResult
runGuided(const Target &t, const CampaignOptions &opts,
          const GuidedOptions &g)
{
    GuidedResult r;
    r.corpus.program = t.name;

    // The driver *is* the coverage consumer: force the fold on and
    // disable the blind campaign's early-stop (the guided stop rule is
    // stopAtFirstFailure).
    CampaignOptions ropts = opts;
    ropts.collectCoverage = true;
    ropts.stopAfterFailures = 0;

    const TargetImages images(t);
    std::set<uint64_t> covKeys; // sorted for the final digest
    std::unordered_set<std::string> tried;

    uint64_t nextFreshSeed = 1;
    uint64_t nextProbeSeed = 1;
    uint64_t freshGenerated = 0;
    uint64_t round = 0;
    unsigned batchSize = std::max(1u, g.batch);

    // Telemetry deltas are published per batch (the campaign-wide
    // guided counters accumulate across targets).
    uint64_t pubCorpus = 0, pubMutTried = 0, pubMutNovel = 0;
    uint64_t pubFreshTried = 0, pubFreshNovel = 0;

    bool stop = g.budget == 0;
    while (!stop && r.schedules < g.budget) {
        ++round;
        // Per-round stream: generation depends only on (round, corpus
        // state) — never on worker timing.
        Rng rng(kMutationSeed ^ (0x9e3779b97f4a7c15ull * round));

        uint64_t want = std::min<uint64_t>(batchSize,
                                           g.budget - r.schedules);
        std::vector<GenSchedule> batch;
        batch.reserve(want);
        for (uint64_t slot = 0; slot < want; ++slot) {
            GenSchedule gen;
            bool mutate =
                !r.corpus.entries.empty() && rng.chance(2, 3);
            if (mutate) {
                gen.fresh = true; // falls back to fresh if no luck
                uint64_t total = r.corpus.totalEnergy();
                for (int attempt = 0; attempt < 8; ++attempt) {
                    const CorpusEntry &parent =
                        pickParent(r.corpus, total, rng);
                    MutOp op = MutOp(rng.range(kMutOpCount));
                    ScheduleSpec mutated;
                    if (!mutateSpec(parent, op, t.horizon, g.nudgeMax,
                                    rng, mutated))
                        continue;
                    if (!tried.insert(mutated.token()).second)
                        continue; // already explored this schedule
                    gen.spec = mutated;
                    gen.fresh = false;
                    gen.op = op;
                    gen.parent = parent.spec.token();
                    break;
                }
            }
            if (gen.fresh) {
                // Fresh stream: base-policy seeds alternating with
                // Random-policy probes.  Change points live on the
                // scheduling-tick axis (shared stores + sync ops), so
                // a point schedule can never preempt between two
                // consecutive *loads*; atomicity violations in
                // load-load windows (MySQL2's double read of in_use)
                // are reachable only through the Random policy's
                // instruction-granularity quanta.  Probe discoveries
                // are not admitted to the corpus (no points to
                // mutate), but their edges fold into the coverage set
                // like any other run's.  The parity of the fresh
                // *counter*, not the slot, keeps the interleave
                // deterministic across batch boundaries.
                bool probe = freshGenerated % 2 == 1;
                ++freshGenerated;
                if (probe) {
                    gen.spec.policy = SchedPolicy::Random;
                    gen.spec.depth = 0;
                    gen.spec.seed = nextProbeSeed++;
                } else {
                    gen.spec.policy = g.basePolicy;
                    gen.spec.depth = g.baseDepth;
                    gen.spec.seed = nextFreshSeed++;
                }
                tried.insert(gen.spec.token());
            }
            batch.push_back(std::move(gen));
        }

        // Run the batch on the worker pool (at most one thread per
        // schedule).  Workers only execute; everything stateful
        // happens in the batch-order fold below.
        std::vector<ScheduleOutcome> outs(batch.size());
        runPool(batch.size(), opts.workers,
                [&](unsigned worker, size_t i) {
                    outs[i] =
                        runOneSchedule(t, images, batch[i].spec, ropts);
                    if (opts.telemetry)
                        opts.telemetry->noteSchedule(worker, t.name,
                                                     outs[i], ropts);
                });

        // Fold in batch order.
        for (size_t i = 0; i < batch.size(); ++i) {
            const GenSchedule &gen = batch[i];
            const ScheduleOutcome &o = outs[i];

            ++r.schedules;
            if (gen.fresh) {
                ++r.freshSchedules;
                ++pubFreshTried;
            } else {
                ++r.mutatedSchedules;
                ++r.perOp[size_t(gen.op)];
                ++pubMutTried;
            }

            r.divergences += o.diverged;
            r.unrecovered += isUnrecovered(t, o);

            std::vector<uint64_t> novel;
            uint64_t novelRacy = 0;
            for (const obs::cov::Edge &e : o.coverage)
                if (covKeys.insert(e.key).second) {
                    novel.push_back(e.key); // stays sorted: o.coverage is
                    novelRacy += e.kind == obs::cov::EdgeKind::RacyPair;
                }

            // Random probes cannot be admitted: there are no change
            // points to pin or mutate.  Their novel edges stay in the
            // coverage set (deduplicating future admissions), which
            // keeps corpus energy honest — edges only reachable at
            // instruction granularity never inflate a point
            // schedule's weight.
            if (!novel.empty() && takesPoints(gen.spec.policy)) {
                if (gen.fresh) {
                    ++r.freshNovel;
                    ++pubFreshNovel;
                } else {
                    ++r.mutationNovel;
                    ++r.perOpNovel[size_t(gen.op)];
                    ++pubMutNovel;
                }
                CorpusEntry ce;
                ce.spec = gen.spec;
                if (ce.spec.points.empty())
                    ce.spec.points = derivePoints(ce.spec, t.horizon);
                ce.novelEdges = std::move(novel);
                ce.racy = novelRacy;
                ce.ordinal = r.schedules;
                ce.op = gen.fresh ? "fresh" : mutOpName(gen.op);
                ce.parent = gen.parent;
                r.corpus.entries.push_back(std::move(ce));
                ++pubCorpus;
            }

            if (isFailingSchedule(o) && !r.foundFailure) {
                r.foundFailure = true;
                r.firstFailure = gen.spec;
                r.seedsToFirstFailure = r.schedules;
                r.firstFailureTag = o.unhardenedTag;
                if (g.stopAtFirstFailure) {
                    stop = true;
                    break; // later batch slots stay unfolded
                }
            }
        }

        if (opts.telemetry) {
            opts.telemetry->addGuided(pubCorpus, pubMutTried,
                                      pubMutNovel, pubFreshTried,
                                      pubFreshNovel);
            pubCorpus = pubMutTried = pubMutNovel = 0;
            pubFreshTried = pubFreshNovel = 0;
        }
    }

    r.distinctEdges = covKeys.size();
    r.coverageDigest = obs::cov::coverageDigest(
        std::vector<uint64_t>(covKeys.begin(), covKeys.end()));
    return r;
}

} // namespace conair::explore
