#include "obs/postmortem/diagnosis.h"

#include <algorithm>

#include "analysis/memory_class.h"
#include "analysis/slicing.h"
#include "conair/optimizer.h"
#include "ir/module.h"
#include "support/str.h"

namespace conair::obs::pm {

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::AtomicityViolation: return "atomicity-violation";
      case Verdict::OrderViolation: return "order-violation";
      case Verdict::LostUpdate: return "lost-update";
      case Verdict::Deadlock: return "deadlock";
      case Verdict::Unknown: return "unknown";
    }
    return "?";
}

bool
verdictFromName(const std::string &name, Verdict &out)
{
    for (Verdict v :
         {Verdict::AtomicityViolation, Verdict::OrderViolation,
          Verdict::LostUpdate, Verdict::Deadlock, Verdict::Unknown}) {
        if (name == verdictName(v)) {
            out = v;
            return true;
        }
    }
    return false;
}

bool
verdictMatchesRootCause(Verdict v, const std::string &rootCause)
{
    if (rootCause == "deadlock")
        return v == Verdict::Deadlock;
    if (rootCause == "A Vio.")
        return v == Verdict::AtomicityViolation ||
               v == Verdict::LostUpdate;
    if (rootCause == "O Vio.")
        return v == Verdict::OrderViolation;
    if (rootCause == "A/O Vio.")
        return v == Verdict::AtomicityViolation ||
               v == Verdict::OrderViolation || v == Verdict::LostUpdate;
    return false;
}

const EpisodeReport *
RecoveryReport::primary() const
{
    for (const EpisodeReport &e : episodes)
        if (e.verdict != Verdict::Unknown)
            return &e;
    return episodes.empty() ? nullptr : &episodes.front();
}

std::string
bitsStr(uint64_t bits)
{
    int64_t s = int64_t(bits);
    if (s > -(int64_t(1) << 48) && s < (int64_t(1) << 48))
        return strfmt("%lld", (long long)s);
    return strfmt("0x%llx", (unsigned long long)bits);
}

namespace {

/** The failure class a site tag encodes ("assert.fn.line", ...). */
ca::FailureKind
kindFromTag(const std::string &tag)
{
    if (tag.rfind("assert.", 0) == 0)
        return ca::FailureKind::Assertion;
    if (tag.rfind("oracle.", 0) == 0 || tag.rfind("out.", 0) == 0)
        return ca::FailureKind::WrongOutput;
    if (tag.rfind("deref.", 0) == 0)
        return ca::FailureKind::Segfault;
    if (tag.rfind("lock.", 0) == 0)
        return ca::FailureKind::Deadlock;
    // Hang failure tags are ";"-joined lock tags; any lock.* inside
    // means deadlock.
    if (tag.find("lock.") != std::string::npos)
        return ca::FailureKind::Deadlock;
    return ca::FailureKind::Assertion;
}

/** Locates the (first) instruction carrying @p tag in @p m. */
const ir::Instruction *
findInstByTag(const ir::Module &m, const std::string &tag)
{
    if (tag.empty())
        return nullptr;
    for (const auto &f : m.functions())
        for (const auto &bb : f->blocks())
            for (const auto &inst : bb->insts())
                if (inst->tag() == tag)
                    return inst.get();
    return nullptr;
}

/** Cell segments as packed by the VM (vm::Ptr::Seg order). */
constexpr uint8_t kSegGlobal = 1;

/** One episode skeleton lifted from the event stream. */
struct Episode
{
    uint32_t tid = 0;
    std::string tag;
    bool recovered = false;
    uint64_t retries = 0;
    uint64_t startClock = 0;
    uint64_t endClock = 0;
    uint64_t endSeq = 0;
};

AccessRef
accessOf(const TraceEvent &ev)
{
    AccessRef a;
    a.valid = true;
    a.seq = ev.seq;
    a.clock = ev.clock;
    a.step = ev.step;
    a.tid = ev.tid;
    a.isStore = ev.kind == EventKind::SharedStore;
    a.addr = ev.a;
    a.value = ev.b;
    a.tag = ev.tag;
    return a;
}

/** SchedSwitch events strictly between @p lo and @p hi (seq order). */
uint64_t
switchesBetween(const std::vector<uint64_t> &switchSeqs, uint64_t lo,
                uint64_t hi)
{
    if (hi < lo)
        std::swap(lo, hi);
    auto b = std::upper_bound(switchSeqs.begin(), switchSeqs.end(), lo);
    auto e = std::lower_bound(switchSeqs.begin(), switchSeqs.end(), hi);
    return e > b ? uint64_t(e - b) : 0;
}

/** Human name of a packed cell address against @p m's global table. */
std::string
cellName(const ir::Module &m, uint64_t packed)
{
    uint8_t seg = cellSeg(packed);
    uint32_t block = cellBlock(packed);
    int64_t off = cellOffset(packed);
    if (seg == kSegGlobal && block < m.globals().size()) {
        std::string n = m.globals()[block]->name();
        if (off != 0)
            n += strfmt("[%lld]", (long long)off);
        return n;
    }
    return strfmt("%s#%u+%lld", seg == kSegGlobal ? "global" : "heap",
                  block, (long long)off);
}

/** Everything diagnose() lifts out of one merged event stream. */
struct TraceIndex
{
    std::vector<AccessRef> accesses;       ///< shared loads/stores
    std::vector<uint64_t> switchSeqs;      ///< SchedSwitch seqs, sorted
    std::vector<const TraceEvent *> locks; ///< LockAcquire events
    std::vector<const TraceEvent *> lockBlocks; ///< LockBlock/Timeout
    std::vector<AccessRef> rollbacks;      ///< per-Rollback markers
    std::vector<Episode> episodes;
};

TraceIndex
indexTrace(const std::vector<TraceEvent> &merged)
{
    TraceIndex ix;
    for (const TraceEvent &ev : merged) {
        switch (ev.kind) {
          case EventKind::SharedLoad:
          case EventKind::SharedStore:
            ix.accesses.push_back(accessOf(ev));
            break;
          case EventKind::SchedSwitch:
            ix.switchSeqs.push_back(ev.seq);
            break;
          case EventKind::LockAcquire:
            ix.locks.push_back(&ev);
            break;
          case EventKind::LockBlock:
          case EventKind::LockTimeout:
            ix.lockBlocks.push_back(&ev);
            break;
          case EventKind::Rollback: {
            AccessRef r;
            r.valid = true;
            r.seq = ev.seq;
            r.clock = ev.clock;
            r.tid = ev.tid;
            ix.rollbacks.push_back(r);
            break;
          }
          case EventKind::RecoveryDone: {
            Episode e;
            e.tid = ev.tid;
            e.tag = ev.tag;
            e.recovered = true;
            e.retries = ev.a;
            e.startClock = ev.b;
            e.endClock = ev.clock;
            e.endSeq = ev.seq;
            ix.episodes.push_back(e);
            break;
          }
          case EventKind::FailureSite: {
            Episode e;
            e.tid = ev.tid;
            e.tag = ev.tag;
            e.recovered = false;
            e.startClock = ev.clock;
            e.endClock = ev.clock;
            e.endSeq = ev.seq;
            ix.episodes.push_back(e);
            break;
          }
          default:
            break;
        }
    }
    return ix;
}

/** The first rollback of @p e — the moment the original failing
 *  execution ended.  Racy-pair reconstruction looks *before* this
 *  boundary so it sees the access that actually failed, not a retry. */
uint64_t
episodeBoundary(const TraceIndex &ix, const Episode &e)
{
    if (!e.recovered)
        return e.endSeq;
    uint64_t best = e.endSeq;
    for (const AccessRef &r : ix.rollbacks)
        if (r.tid == e.tid && r.clock >= e.startClock &&
            r.seq < e.endSeq) {
            best = std::min(best, r.seq);
        }
    return best;
}

/** Candidate racing globals: ids of globals read by loads on the
 *  failure's backward slice.  @p interproc reports whether the slice
 *  escaped into a function argument (§4.3 shape — the enabling read
 *  then lives in a caller, so the dynamic fallback must take over). */
std::vector<uint32_t>
sliceCandidates(const ir::Instruction *siteInst, ca::FailureKind kind,
                bool hasOracle, bool *interproc)
{
    std::vector<uint32_t> out;
    *interproc = false;
    if (!siteInst || kind == ca::FailureKind::Deadlock)
        return out;
    const ir::Function *fn = siteInst->parent()->parent();

    // FailureSite wants a mutable Instruction*; the seed/slice
    // computation only reads it.
    ca::FailureSite site{const_cast<ir::Instruction *>(siteInst), kind,
                         0, hasOracle};
    analysis::ControlDeps cdeps(*fn);
    std::vector<const ir::Value *> seeds =
        ca::failureConditionSeeds(site, cdeps);
    analysis::SliceResult slice =
        analysis::backwardSlice(*fn, seeds, cdeps);
    *interproc = !slice.args.empty();

    for (const ir::Instruction *inst : slice.insts) {
        if (inst->opcode() != ir::Opcode::Load)
            continue;
        if (const ir::Global *g = analysis::rootGlobal(inst->operand(0)))
            out.push_back(g->id());
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

/** Latest store to @p addr by a thread other than @p tid with
 *  seq < @p before.  Invalid AccessRef when none. */
AccessRef
lastForeignStoreBefore(const TraceIndex &ix, uint64_t addr, uint32_t tid,
                       uint64_t before)
{
    AccessRef best;
    for (const AccessRef &a : ix.accesses) {
        if (a.seq >= before)
            break;
        if (a.isStore && a.addr == addr && a.tid != tid)
            best = a;
    }
    return best;
}

/** Earliest store to @p addr by a thread other than @p tid in
 *  (@p after, @p until]. */
AccessRef
firstForeignStoreIn(const TraceIndex &ix, uint64_t addr, uint32_t tid,
                    uint64_t after, uint64_t until)
{
    for (const AccessRef &a : ix.accesses) {
        if (a.seq <= after)
            continue;
        if (a.seq > until)
            break;
        if (a.isStore && a.addr == addr && a.tid != tid)
            return a;
    }
    return {};
}

/** T's own earliest store to @p addr in (@p after, @p until]. */
AccessRef
ownStoreIn(const TraceIndex &ix, uint64_t addr, uint32_t tid,
           uint64_t after, uint64_t until)
{
    for (const AccessRef &a : ix.accesses) {
        if (a.seq <= after)
            continue;
        if (a.seq > until)
            break;
        if (a.isStore && a.addr == addr && a.tid == tid)
            return a;
    }
    return {};
}

bool
hasConflict(const TraceIndex &ix, const AccessRef &load,
            uint64_t episodeEnd)
{
    return lastForeignStoreBefore(ix, load.addr, load.tid, load.seq)
               .valid ||
           firstForeignStoreIn(ix, load.addr, load.tid, load.seq,
                               episodeEnd)
               .valid;
}

/** Deadlock diagnosis: the mutex is named statically from the lock
 *  site's address operand (falling back to the blocked thread's last
 *  LockBlock event), the partner is whoever last acquired it. */
void
diagnoseDeadlock(const TraceIndex &ix, const ir::Module &m,
                 const ir::Instruction *siteInst, uint64_t boundary,
                 EpisodeReport &ep)
{
    ep.verdict = Verdict::Deadlock;

    // The contended lock cell: statically from the site instruction,
    // dynamically from the thread's last block event.
    const ir::Global *mutexGlobal =
        siteInst && siteInst->numOperands() > 0
            ? analysis::rootGlobal(siteInst->operand(0))
            : nullptr;
    uint64_t mutexBlock = UINT64_MAX;
    if (mutexGlobal)
        mutexBlock = mutexGlobal->id();

    const TraceEvent *blocked = nullptr;
    for (const TraceEvent *ev : ix.lockBlocks) {
        if (ev->seq > boundary)
            break;
        if (ev->tid == ep.tid &&
            (mutexBlock == UINT64_MAX || ev->a == mutexBlock))
            blocked = ev;
    }
    if (!mutexGlobal && blocked && blocked->a < m.globals().size() &&
        m.globals()[blocked->a]->isMutex())
        mutexGlobal = m.globals()[blocked->a].get();
    if (mutexBlock == UINT64_MAX && blocked)
        mutexBlock = blocked->a;

    if (mutexGlobal)
        ep.variable = mutexGlobal->name();
    else if (mutexBlock != UINT64_MAX)
        ep.variable = strfmt("mutex#%llu",
                             (unsigned long long)mutexBlock);

    if (blocked) {
        ep.failingAccess.valid = true;
        ep.failingAccess.seq = blocked->seq;
        ep.failingAccess.clock = blocked->clock;
        ep.failingAccess.step = blocked->step;
        ep.failingAccess.tid = blocked->tid;
        ep.failingAccess.addr =
            packCellAddr(kSegGlobal, uint32_t(mutexBlock), 0);
        ep.failingAccess.tag = blocked->tag;
    }

    // Partner: the last thread to acquire the contended mutex before
    // the failing thread gave up on it.
    const TraceEvent *holder = nullptr;
    for (const TraceEvent *ev : ix.locks) {
        if (ev->seq > boundary)
            break;
        if (ev->tid != ep.tid && ev->a == mutexBlock)
            holder = ev;
    }
    if (holder) {
        ep.racingAccess.valid = true;
        ep.racingAccess.seq = holder->seq;
        ep.racingAccess.clock = holder->clock;
        ep.racingAccess.step = holder->step;
        ep.racingAccess.tid = holder->tid;
        ep.racingAccess.addr = ep.failingAccess.addr;
        ep.racingAccess.tag = holder->tag;
        if (ep.failingAccess.valid)
            ep.switchWindow = switchesBetween(
                ix.switchSeqs, holder->seq, ep.failingAccess.seq);
        ep.evidence = strfmt(
            "t%u blocked acquiring `%s` while t%u has held it since "
            "seq %llu",
            ep.tid, ep.variable.c_str(), holder->tid,
            (unsigned long long)holder->seq);
    } else {
        ep.evidence = strfmt("t%u blocked acquiring `%s` (holder not "
                             "in retained trace)",
                             ep.tid, ep.variable.c_str());
    }
}

void
diagnoseRace(const TraceIndex &ix, const ir::Module &m,
             const std::vector<uint32_t> &candidates, uint64_t boundary,
             uint64_t episodeEnd, EpisodeReport &ep)
{
    // The failing read: the failing thread's latest shared load before
    // its first rollback whose address is rooted at a slice candidate,
    // preferring loads that actually have a conflicting foreign write.
    // Scanning latest-first matches the ConAir region shape: the read
    // feeding the failure condition is the last shared read before the
    // site.
    auto isCandidate = [&](const AccessRef &a) {
        if (candidates.empty())
            return false;
        return cellSeg(a.addr) == kSegGlobal &&
               std::binary_search(candidates.begin(), candidates.end(),
                                  cellBlock(a.addr));
    };

    AccessRef load;
    for (int pass = 0; pass < 2 && !load.valid; ++pass) {
        bool requireConflict = pass == 0;
        for (auto it = ix.accesses.rbegin(); it != ix.accesses.rend();
             ++it) {
            const AccessRef &a = *it;
            if (a.seq >= boundary || a.tid != ep.tid || a.isStore)
                continue;
            if (!isCandidate(a))
                continue;
            if (requireConflict && !hasConflict(ix, a, episodeEnd))
                continue;
            load = a;
            break;
        }
    }
    // Dynamic fallback: the slice escaped into an argument (§4.3
    // inter-procedural shape) or found nothing — take the failing
    // thread's latest conflicted shared load instead.
    if (!load.valid) {
        for (auto it = ix.accesses.rbegin(); it != ix.accesses.rend();
             ++it) {
            const AccessRef &a = *it;
            if (a.seq >= boundary || a.tid != ep.tid || a.isStore)
                continue;
            if (!hasConflict(ix, a, episodeEnd))
                continue;
            load = a;
            break;
        }
    }
    if (!load.valid)
        return;

    ep.failingAccess = load;
    ep.variable = cellName(m, load.addr);
    ep.cellOffset = cellOffset(load.addr);
    if (cellSeg(load.addr) == kSegGlobal &&
        cellBlock(load.addr) < m.globals().size())
        ep.variable = m.globals()[cellBlock(load.addr)]->name();

    AccessRef pre =
        lastForeignStoreBefore(ix, load.addr, load.tid, load.seq);
    AccessRef mid = firstForeignStoreIn(ix, load.addr, load.tid,
                                        load.seq, episodeEnd);
    AccessRef own = ownStoreIn(ix, load.addr, load.tid, load.seq,
                               boundary);

    if (own.valid) {
        AccessRef between = firstForeignStoreIn(
            ix, load.addr, load.tid, load.seq, own.seq);
        if (between.valid) {
            ep.verdict = Verdict::LostUpdate;
            ep.racingAccess = between;
            ep.evidence = strfmt(
                "t%u wrote `%s` at seq %llu between t%u's read "
                "(seq %llu) and write-back (seq %llu): the foreign "
                "update is lost",
                between.tid, ep.variable.c_str(),
                (unsigned long long)between.seq, ep.tid,
                (unsigned long long)load.seq,
                (unsigned long long)own.seq);
        }
    }
    if (ep.verdict == Verdict::Unknown && pre.valid) {
        // The reader observed state another thread had already
        // written — it caught the writer mid-flight (the classic
        // atomicity violation: MySQL1's rotator had published
        // log_open=0 but not yet restored it).
        ep.verdict = Verdict::AtomicityViolation;
        ep.racingAccess = pre;
        ep.evidence = strfmt(
            "t%u read `%s` = %s at seq %llu, seeing the transient "
            "state t%u stored at seq %llu",
            ep.tid, ep.variable.c_str(), bitsStr(load.value).c_str(),
            (unsigned long long)load.seq, pre.tid,
            (unsigned long long)pre.seq);
    }
    if (ep.verdict == Verdict::Unknown && mid.valid) {
        // No thread had written the cell yet: the reader simply ran
        // before the enabling write (order violation; recovery waits
        // it out by retrying).
        ep.verdict = Verdict::OrderViolation;
        ep.racingAccess = mid;
        ep.evidence = strfmt(
            "t%u read `%s` = %s at seq %llu before t%u's enabling "
            "write of %s landed at seq %llu",
            ep.tid, ep.variable.c_str(), bitsStr(load.value).c_str(),
            (unsigned long long)load.seq, mid.tid,
            bitsStr(mid.value).c_str(),
            (unsigned long long)mid.seq);
    }
    if (ep.racingAccess.valid)
        ep.switchWindow = switchesBetween(ix.switchSeqs, load.seq,
                                          ep.racingAccess.seq);
}

} // namespace

RecoveryReport
diagnose(const FlightRecorder &rec, const ir::Module &m,
         const std::string &program, const std::string &schedule)
{
    RecoveryReport rep;
    rep.program = program;
    rep.schedule = schedule;
    rep.events = rec.totalRecordedAll();
    rep.dropped = rec.droppedAll();
    rep.sharedAccessesSeen = rec.totalOf(EventKind::SharedLoad) +
                             rec.totalOf(EventKind::SharedStore);

    // The index holds pointers into the merged stream; keep it alive
    // for the whole diagnosis.
    std::vector<TraceEvent> merged = rec.merged();
    TraceIndex ix = indexTrace(merged);

    for (const Episode &e : ix.episodes) {
        EpisodeReport ep;
        ep.tid = e.tid;
        ep.siteTag = e.tag;
        ep.recovered = e.recovered;
        ep.retries = e.retries;
        ep.startClock = e.startClock;
        ep.endClock = e.endClock;

        // Hang failure sites carry no tag (no single site); borrow the
        // thread's last lock-block tag so the static join has a name.
        if (ep.siteTag.empty()) {
            for (const TraceEvent *ev : ix.lockBlocks)
                if (ev->tid == ep.tid)
                    ep.siteTag = ev->tag;
        }
        ep.kind = kindFromTag(ep.siteTag);

        uint64_t boundary = episodeBoundary(ix, e);
        uint64_t episodeEnd = e.recovered ? e.endSeq : UINT64_MAX;
        const ir::Instruction *siteInst = findInstByTag(m, ep.siteTag);

        if (ep.kind == ca::FailureKind::Deadlock) {
            diagnoseDeadlock(ix, m, siteInst, boundary, ep);
        } else {
            bool interproc = false;
            std::vector<uint32_t> candidates = sliceCandidates(
                siteInst, ep.kind, ep.siteTag.rfind("oracle.", 0) == 0,
                &interproc);
            ep.sliceInterproc = interproc;
            diagnoseRace(ix, m, candidates, boundary, episodeEnd, ep);
        }
        rep.episodes.push_back(std::move(ep));
    }
    return rep;
}

} // namespace conair::obs::pm
