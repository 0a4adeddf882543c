/**
 * @file
 * Post-mortem root-cause diagnosis (src/obs/postmortem/).
 *
 * ConAir deliberately recovers without telling the developer *why* the
 * failure fired (paper §3.3 leaves diagnosis to the programmer).  This
 * engine closes that gap after the fact: it joins a FlightRecorder
 * trace captured in diagnosis recording mode
 * (VmConfig::recordSharedAccesses) with the static side of the ConAir
 * analysis — the failure site located by its tag, its failure-condition
 * seeds (conair/optimizer.h), and the backward slice
 * (analysis/slicing.h) — to reconstruct, per recovery episode:
 *
 *  - the *racy pair*: the failing thread's last shared read of an
 *    address on the failure's backward slice, paired with the
 *    conflicting write by another thread (or, for deadlocks, the lock
 *    acquisition the partner thread holds);
 *  - the *scheduler-switch window* between the two accesses (how many
 *    context switches separate them — the size of the racy window the
 *    schedule had to hit);
 *  - a *bug-pattern verdict* (atomicity violation / order violation /
 *    lost update / deadlock), checkable against the kernel taxonomy in
 *    src/apps/ (Table 2's root-cause column).
 *
 * Everything here is offline trace analysis: the engine never executes
 * the program and mutates nothing, so it can run on traces dumped by a
 * campaign abort long after the VM is gone.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "conair/failure_sites.h"
#include "obs/trace.h"

namespace conair {
class JsonWriter;
}
namespace conair::ir {
class Module;
}

namespace conair::obs::pm {

/** The classic concurrency-bug patterns (CHESS/Lu et al. taxonomy,
 *  matching Table 2's root-cause column). */
enum class Verdict : uint8_t {
    AtomicityViolation, ///< reader saw another thread's transient state
    OrderViolation,     ///< reader ran before the enabling write
    LostUpdate,         ///< read-modify-write overlapped a foreign write
    Deadlock,           ///< circular lock wait
    Unknown,
};

const char *verdictName(Verdict v);

/** Inverse of verdictName ("lost-update" -> Verdict::LostUpdate);
 *  returns false on an unrecognised name.  Round-trip is test-pinned
 *  for every enumerator. */
bool verdictFromName(const std::string &name, Verdict &out);

/**
 * True when @p v is consistent with a Table 2 root-cause label as
 * printed by apps::rootCauseName ("A Vio.", "O Vio.", "A/O Vio.",
 * "deadlock").  Lost updates count as atomicity violations.
 */
bool verdictMatchesRootCause(Verdict v, const std::string &rootCause);

/** One shared access (or lock operation) lifted from the trace. */
struct AccessRef
{
    bool valid = false;
    uint64_t seq = 0;
    uint64_t clock = 0;
    uint64_t step = 0;
    uint32_t tid = 0;
    bool isStore = false;
    uint64_t addr = 0;  ///< packed cell address (obs::packCellAddr)
    uint64_t value = 0; ///< raw value bits transferred
    std::string tag;    ///< source tag of the access, when present
};

/** The diagnosis of one recovery episode (or terminal failure). */
struct EpisodeReport
{
    uint32_t tid = 0;          ///< failing thread
    std::string siteTag;       ///< "oracle.binlog_append.93", ...
    ca::FailureKind kind = ca::FailureKind::Assertion;
    bool recovered = false;    ///< false: the terminal FailureSite
    uint64_t retries = 0;
    uint64_t startClock = 0;
    uint64_t endClock = 0;

    Verdict verdict = Verdict::Unknown;
    std::string variable;      ///< racing global's name ("" if unknown)
    int64_t cellOffset = 0;    ///< offset within that global (arrays)
    AccessRef failingAccess;   ///< the read / lock on the failing thread
    AccessRef racingAccess;    ///< the conflicting access (other thread)
    uint64_t switchWindow = 0; ///< SchedSwitch events between the pair
    bool sliceInterproc = false; ///< slice escaped into an argument
    std::string evidence;      ///< one-line human rationale
};

/** The whole-trace diagnosis. */
struct RecoveryReport
{
    std::string program;  ///< kernel / program name
    std::string schedule; ///< repro token ("" for scripted runs)
    uint64_t events = 0;  ///< events ever recorded
    uint64_t dropped = 0; ///< lost to ring wraparound (may weaken pairs)
    uint64_t sharedAccessesSeen = 0; ///< SharedLoad+SharedStore totals
    std::vector<EpisodeReport> episodes;

    /** The first episode carrying a non-Unknown verdict (the headline
     *  diagnosis), or nullptr. */
    const EpisodeReport *primary() const;
};

/**
 * Diagnoses every recovery episode (RecoveryDone events) and terminal
 * failure (FailureSite events) in @p rec against @p m — the module the
 * traced run executed (the hardened build for a hardened-leg trace).
 * The trace should come from a diagnosis-mode run
 * (VmConfig::recordSharedAccesses); without SharedLoad/SharedStore
 * events, episodes are still listed but racy pairs stay unresolved.
 */
RecoveryReport diagnose(const FlightRecorder &rec, const ir::Module &m,
                        const std::string &program,
                        const std::string &schedule = {});

/** A recorded value's payload bits as the report and the verdict
 *  messages print them: signed decimal within 48 bits, hex beyond. */
std::string bitsStr(uint64_t bits);

/** Human-readable report with an ASCII two-thread interleaving diagram
 *  per diagnosed episode. */
std::string renderText(const RecoveryReport &r);

/** Serialises @p r into an open writer position (the caller owns the
 *  surrounding document). */
void writeJson(JsonWriter &w, const RecoveryReport &r);

/** A standalone pretty-printed JSON document. */
std::string toJson(const RecoveryReport &r, int indent = 2);

} // namespace conair::obs::pm
