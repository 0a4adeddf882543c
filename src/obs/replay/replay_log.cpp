#include "obs/replay/replay_log.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <tuple>

#include "support/fnv.h"
#include "support/str.h"

namespace conair::obs::replay {

const char *
engineName(vm::ExecEngine e)
{
    switch (e) {
      case vm::ExecEngine::Reference: return "reference";
      case vm::ExecEngine::Fused: return "fused";
    }
    return "?";
}

bool
engineFromName(const std::string &name, vm::ExecEngine &out)
{
    // "decoded" names the engine Fused absorbed; logs recorded under
    // it keep loading (the engines are tick-identical).
    if (name == "fused" || name == "decoded")
        out = vm::ExecEngine::Fused;
    else if (name == "reference")
        out = vm::ExecEngine::Reference;
    else
        return false;
    return true;
}

vm::ReplaySchedule
ReplayLog::schedule(bool tolerant) const
{
    vm::ReplaySchedule s;
    s.switches = switches;
    s.tolerant = tolerant;
    return s;
}

void
ReplayLog::applyTo(vm::VmConfig &cfg) const
{
    cfg.policy = policy;
    if (policy == vm::SchedPolicy::Pct)
        cfg.pctDepth = std::max<uint32_t>(depth, 1);
    else if (policy == vm::SchedPolicy::PreemptBound)
        cfg.preemptBound = depth;
    cfg.pctHorizon = horizon;
    cfg.quantum = quantum;
    cfg.seed = seed;
    cfg.appSeed = appSeed;
    cfg.maxSteps = maxSteps;
    cfg.hangTimeout = hangTimeout;
    cfg.maxRetries = maxRetries;
    cfg.backoffMax = backoffMax;
    cfg.chaosRollbackEveryN = chaosEveryN;
    cfg.chaosMaxRollbacks = chaosMaxRollbacks;
    cfg.delays = delays;
}

//
// Serialization.  One field per line, fixed order, so equal logs
// serialise byte-identically (the record -> replay -> re-record test
// pins this).  String payloads take the rest of the line; kernel
// names, tokens, and site tags never contain newlines.
//

std::string
ReplayLog::serialize() const
{
    std::string o;
    o += "conair-replay v1\n";
    o += "program " + program + "\n";
    o += "token " + scheduleToken + "\n";
    o += strfmt("engine %s\n", engineName(engine));
    o += strfmt("policy %s\n", vm::schedPolicyName(policy));
    o += strfmt("depth %u\n", depth);
    o += strfmt("horizon %llu\n", (unsigned long long)horizon);
    o += strfmt("quantum %llu\n", (unsigned long long)quantum);
    o += strfmt("seed %llu\n", (unsigned long long)seed);
    o += strfmt("appseed %llu\n", (unsigned long long)appSeed);
    o += strfmt("maxsteps %llu\n", (unsigned long long)maxSteps);
    o += strfmt("hangtimeout %llu\n", (unsigned long long)hangTimeout);
    o += strfmt("maxretries %lld\n", (long long)maxRetries);
    o += strfmt("backoffmax %llu\n", (unsigned long long)backoffMax);
    o += strfmt("chaoseveryn %llu\n", (unsigned long long)chaosEveryN);
    o += strfmt("chaosmax %llu\n",
                (unsigned long long)chaosMaxRollbacks);
    for (const vm::DelayRule &d : delays)
        o += strfmt("delay %llu %llu %llu\n",
                    (unsigned long long)d.hintId,
                    (unsigned long long)d.delayTicks,
                    (unsigned long long)d.maxFires);
    o += "outcome " + outcome + "\n";
    o += "tag " + failureTag + "\n";
    o += strfmt("exit %lld\n", (long long)exitCode);
    o += strfmt("clock %llu\n", (unsigned long long)finalClock);
    o += strfmt("steps %llu\n", (unsigned long long)finalSteps);
    o += strfmt("schedticks %llu\n", (unsigned long long)schedTicks);
    o += strfmt("memdigest %016llx\n", (unsigned long long)memDigest);
    o += strfmt("accesses %llu %016llx\n",
                (unsigned long long)accessCount,
                (unsigned long long)accessDigest);
    o += strfmt("switches %zu\n", switches.size());
    for (const vm::ReplaySchedule::Switch &s : switches)
        o += strfmt("s %llu %u\n", (unsigned long long)s.step, s.tid);
    o += strfmt("locks %zu\n", locks.size());
    for (const LockAcq &l : locks)
        o += strfmt("l %llu %u %llu\n", (unsigned long long)l.step,
                    l.tid, (unsigned long long)l.block);
    o += "end\n";
    return o;
}

namespace {

bool
parseI64(const std::string &s, int64_t &out)
{
    if (s.empty())
        return false;
    size_t digits = s[0] == '-' ? 1 : 0;
    if (digits >= s.size() || s[digits] < '0' || s[digits] > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(s.c_str(), &end, 10);
    if (errno == ERANGE || !end || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
parseHex64(const std::string &s, uint64_t &out)
{
    if (s.empty() || s.size() > 16)
        return false;
    uint64_t v = 0;
    for (char c : s) {
        int d;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (c >= 'a' && c <= 'f')
            d = 10 + (c - 'a');
        else
            return false;
        v = (v << 4) | uint64_t(d);
    }
    out = v;
    return true;
}

/** Splits one log line into whitespace-separated fields. */
std::vector<std::string>
fields(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream is(line);
    std::string f;
    while (is >> f)
        out.push_back(f);
    return out;
}

struct LineReader
{
    std::istringstream is;
    size_t lineNo = 0;
    std::string line;

    explicit LineReader(const std::string &text) : is(text) {}

    bool next()
    {
        if (!std::getline(is, line))
            return false;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        ++lineNo;
        return true;
    }
};

} // namespace

bool
parseReplayLog(const std::string &text, ReplayLog &out, std::string &err)
{
    LineReader rd(text);
    auto fail = [&](const std::string &what) {
        err = strfmt("replay log line %zu: %s", rd.lineNo,
                     what.c_str());
        return false;
    };

    if (!rd.next() || rd.line != "conair-replay v1")
        return fail("missing 'conair-replay v1' header");

    ReplayLog log;
    bool sawOutcome = false, sawSteps = false, sawSwitches = false,
         sawLocks = false, sawEnd = false;

    while (rd.next()) {
        if (rd.line == "end") {
            sawEnd = true;
            break;
        }
        size_t sp = rd.line.find(' ');
        std::string key = rd.line.substr(0, sp);
        std::string rest =
            sp == std::string::npos ? "" : rd.line.substr(sp + 1);

        if (key == "program") {
            log.program = rest;
        } else if (key == "token") {
            log.scheduleToken = rest;
        } else if (key == "engine") {
            if (!engineFromName(rest, log.engine))
                return fail("unknown engine '" + rest + "'");
        } else if (key == "policy") {
            if (!vm::schedPolicyFromName(rest, log.policy))
                return fail("unknown policy '" + rest + "'");
        } else if (key == "depth") {
            uint64_t v;
            if (!parseU64(rest, v) || v > UINT32_MAX)
                return fail("bad depth '" + rest + "'");
            log.depth = uint32_t(v);
        } else if (key == "horizon") {
            if (!parseU64(rest, log.horizon))
                return fail("bad horizon '" + rest + "'");
        } else if (key == "quantum") {
            if (!parseU64(rest, log.quantum))
                return fail("bad quantum '" + rest + "'");
        } else if (key == "seed") {
            if (!parseU64(rest, log.seed))
                return fail("bad seed '" + rest + "'");
        } else if (key == "appseed") {
            if (!parseU64(rest, log.appSeed))
                return fail("bad appseed '" + rest + "'");
        } else if (key == "maxsteps") {
            if (!parseU64(rest, log.maxSteps))
                return fail("bad maxsteps '" + rest + "'");
        } else if (key == "hangtimeout") {
            if (!parseU64(rest, log.hangTimeout))
                return fail("bad hangtimeout '" + rest + "'");
        } else if (key == "maxretries") {
            if (!parseI64(rest, log.maxRetries))
                return fail("bad maxretries '" + rest + "'");
        } else if (key == "backoffmax") {
            if (!parseU64(rest, log.backoffMax))
                return fail("bad backoffmax '" + rest + "'");
        } else if (key == "chaoseveryn") {
            if (!parseU64(rest, log.chaosEveryN))
                return fail("bad chaoseveryn '" + rest + "'");
        } else if (key == "chaosmax") {
            if (!parseU64(rest, log.chaosMaxRollbacks))
                return fail("bad chaosmax '" + rest + "'");
        } else if (key == "delay") {
            auto f = fields(rest);
            vm::DelayRule d{};
            if (f.size() != 3 || !parseU64(f[0], d.hintId) ||
                !parseU64(f[1], d.delayTicks) ||
                !parseU64(f[2], d.maxFires))
                return fail("bad delay rule '" + rest + "'");
            log.delays.push_back(d);
        } else if (key == "outcome") {
            log.outcome = rest;
            sawOutcome = true;
        } else if (key == "tag") {
            log.failureTag = rest;
        } else if (key == "exit") {
            if (!parseI64(rest, log.exitCode))
                return fail("bad exit '" + rest + "'");
        } else if (key == "clock") {
            if (!parseU64(rest, log.finalClock))
                return fail("bad clock '" + rest + "'");
        } else if (key == "steps") {
            if (!parseU64(rest, log.finalSteps))
                return fail("bad steps '" + rest + "'");
            sawSteps = true;
        } else if (key == "schedticks") {
            if (!parseU64(rest, log.schedTicks))
                return fail("bad schedticks '" + rest + "'");
        } else if (key == "memdigest") {
            if (!parseHex64(rest, log.memDigest))
                return fail("bad memdigest '" + rest + "'");
        } else if (key == "accesses") {
            auto f = fields(rest);
            if (f.size() != 2 || !parseU64(f[0], log.accessCount) ||
                !parseHex64(f[1], log.accessDigest))
                return fail("bad accesses '" + rest + "'");
        } else if (key == "switches") {
            uint64_t n;
            if (!parseU64(rest, n))
                return fail("bad switch count '" + rest + "'");
            uint64_t prevStep = 0;
            log.switches.reserve(size_t(n));
            for (uint64_t i = 0; i < n; ++i) {
                if (!rd.next())
                    return fail("truncated switch list");
                auto f = fields(rd.line);
                uint64_t step, tid;
                if (f.size() != 3 || f[0] != "s" ||
                    !parseU64(f[1], step) || !parseU64(f[2], tid) ||
                    tid > UINT32_MAX)
                    return fail("bad switch '" + rd.line + "'");
                if (i > 0 && step <= prevStep)
                    return fail("switch steps not strictly increasing");
                prevStep = step;
                log.switches.push_back({step, uint32_t(tid)});
            }
            sawSwitches = true;
        } else if (key == "locks") {
            uint64_t n;
            if (!parseU64(rest, n))
                return fail("bad lock count '" + rest + "'");
            log.locks.reserve(size_t(n));
            for (uint64_t i = 0; i < n; ++i) {
                if (!rd.next())
                    return fail("truncated lock list");
                auto f = fields(rd.line);
                uint64_t step, tid, block;
                if (f.size() != 4 || f[0] != "l" ||
                    !parseU64(f[1], step) || !parseU64(f[2], tid) ||
                    tid > UINT32_MAX || !parseU64(f[3], block))
                    return fail("bad lock record '" + rd.line + "'");
                log.locks.push_back({step, uint32_t(tid), block});
            }
            sawLocks = true;
        } else {
            return fail("unknown field '" + key + "'");
        }
    }

    if (!sawEnd)
        return fail("missing 'end' terminator");
    if (!sawOutcome || !sawSteps || !sawSwitches || !sawLocks)
        return fail("incomplete log (outcome/steps/switches/locks "
                    "required)");
    out = std::move(log);
    err.clear();
    return true;
}

bool
loadReplayLog(const std::string &path, ReplayLog &out, std::string &err)
{
    std::string text;
    return readFile(path, text, err) && parseReplayLog(text, out, err);
}

bool
saveReplayLog(const std::string &path, const ReplayLog &log,
              std::string &err)
{
    return writeFile(path, log.serialize(), err);
}

std::pair<uint64_t, uint64_t>
accessDigestOf(const FlightRecorder &rec)
{
    // Order-sensitive FNV-1a over the shared-access stream.  The visit
    // is seq-ordered, so the digest pins both values and their global
    // interleaving.
    uint64_t h = kFnvOffset;
    uint64_t count = 0;
    rec.visitMerged([&](const TraceEvent &ev) {
        if (ev.kind != EventKind::SharedLoad &&
            ev.kind != EventKind::SharedStore)
            return;
        ++count;
        h = fnvWord(h, ev.kind == EventKind::SharedStore ? 1 : 0);
        h = fnvWord(h, ev.tid);
        h = fnvWord(h, ev.a);
        h = fnvWord(h, ev.b);
    });
    return {count, count ? h : 0};
}

bool
buildReplayLog(const std::string &program,
               const std::string &scheduleToken, const vm::VmConfig &cfg,
               const FlightRecorder &rec, const vm::RunResult &result,
               ReplayLog &out, std::string &err)
{
    // Satellite invariant: a wrapped ring must never become a replay
    // log.  The retained stream is a suffix — the switches that shaped
    // the run's prefix are gone, and a replay from it would silently
    // tell a different story than the episode it claims to reproduce.
    if (uint64_t dropped = rec.droppedAll()) {
        err = strfmt(
            "recorder ring wrapped: %llu events dropped; a replay-grade "
            "recording must not drop (use RecorderMode::Grow or a "
            "larger capacity)",
            (unsigned long long)dropped);
        return false;
    }
    if (cfg.wpCheckpointInterval > 0) {
        err = "whole-program checkpoint runs cannot be replayed "
              "(rollback reseeds and perturbs the schedule)";
        return false;
    }

    ReplayLog log;
    log.program = program;
    log.scheduleToken = scheduleToken;
    log.engine = cfg.engine;
    log.policy = cfg.policy;
    log.depth = cfg.policy == vm::SchedPolicy::Pct
                    ? uint32_t(cfg.pctDepth)
                    : cfg.policy == vm::SchedPolicy::PreemptBound
                          ? uint32_t(cfg.preemptBound)
                          : 0;
    log.horizon = cfg.pctHorizon;
    log.quantum = cfg.quantum;
    log.seed = cfg.seed;
    log.appSeed = cfg.appSeed;
    log.maxSteps = cfg.maxSteps;
    log.hangTimeout = cfg.hangTimeout;
    log.maxRetries = cfg.maxRetries;
    log.backoffMax = cfg.backoffMax;
    log.chaosEveryN = cfg.chaosRollbackEveryN;
    log.chaosMaxRollbacks = cfg.chaosMaxRollbacks;
    log.delays = cfg.delays;

    uint64_t prevStep = 0;
    bool first = true;
    std::string corrupt; // the first out-of-order switch, if any
    rec.visitMerged([&](const TraceEvent &ev) {
        if (ev.kind == EventKind::SchedSwitch) {
            if (!first && ev.step <= prevStep && corrupt.empty())
                corrupt = strfmt("corrupt recording: switch at step %llu "
                                 "after step %llu",
                                 (unsigned long long)ev.step,
                                 (unsigned long long)prevStep);
            first = false;
            prevStep = ev.step;
            log.switches.push_back({ev.step, ev.tid});
        } else if (ev.kind == EventKind::LockAcquire) {
            log.locks.push_back({ev.step, ev.tid, ev.a});
        }
    });
    if (!corrupt.empty()) {
        err = std::move(corrupt);
        return false;
    }
    std::tie(log.accessCount, log.accessDigest) = accessDigestOf(rec);

    log.outcome = vm::outcomeName(result.outcome);
    log.failureTag = result.failureTag;
    log.exitCode = result.exitCode;
    log.finalClock = result.clock;
    log.finalSteps = result.stats.steps;
    log.schedTicks = result.stats.schedTicks;
    log.memDigest = result.memDigest;

    out = std::move(log);
    err.clear();
    return true;
}

} // namespace conair::obs::replay
