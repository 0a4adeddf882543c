/**
 * @file
 * The flight recorder: a per-thread ring buffer of typed trace events
 * covering everything that matters at recovery time — scheduler
 * decisions, PCT change points, checkpoints, rollbacks, compensation
 * ops, lock traffic, failure-site hits, chaos injections.
 *
 * The recorder is passive observation only: recording never touches
 * the VM's RNG streams, clock, or step accounting, so an instrumented
 * run is tick-for-tick identical to an uninstrumented one (pinned by
 * tests/obs/vm_trace_test.cpp).  The VM holds a nullable pointer
 * (VmConfig::recorder); disabled mode is one branch per event site and
 * allocates nothing.
 *
 * Ring semantics: each thread keeps the newest `capacity` events;
 * older ones are overwritten.  Per-kind totals survive wraparound, so
 * aggregate counts (rollbacks, checkpoints, ...) always match the
 * run's RunStats even when the ring dropped the early events.
 *
 * Everything the recorder captures is a deterministic function of
 * (program, engine, policy, seed), which makes exported traces
 * regression-testable artifacts (see tests/obs/trace_golden_test.cpp
 * and docs/OBSERVABILITY.md).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace conair::obs {

/**
 * Event taxonomy.  The `a` / `b` payload words are kind-specific:
 *
 *  kind                 a                        b
 *  -------------------  -----------------------  -------------------------
 *  ThreadSpawn          PCT priority (0 if n/a)  -
 *  SchedSwitch          previous thread id       runnable-thread count
 *  SchedPoint           change-point index       new priority (PCT)
 *  Checkpoint           1 = locals-saving        schedTicks at checkpoint
 *  Rollback             retry # within episode   checkpoint-to-failure
 *                                                distance in schedTicks
 *  CompensationFree     heap block id            -
 *  CompensationUnlock   mutex cell block         mutex cell offset
 *  Backoff              sleep ticks              1 = retry back-off
 *  LockAcquire          mutex cell block         1 = granted after block
 *  LockBlock            mutex cell block         1 = timed acquisition
 *  LockTimeout          mutex cell block         1 = zero-timeout try-lock
 *  FailureSite          vm::Outcome as integer   -
 *  ChaosRollback        global step count        -
 *  RecoveryDone         retries in the episode   episode start clock
 *  SharedLoad           packed cell address      value bits read
 *  SharedStore          packed cell address      value bits written
 *  CoverageNovel        interleaving edge key    cov::EdgeKind as int
 *  CoverageSnapshot     distinct edges so far    novel edges this run
 *
 * `tag` carries the failure-site / lock-site tag when the instruction
 * has one (Rollback, FailureSite, RecoveryDone, Lock*, Shared*).
 *
 * SharedLoad / SharedStore only fire in *diagnosis recording mode*
 * (VmConfig::recordSharedAccesses, off by default): every non-stack
 * load/store is recorded with its cell address packed via
 * packCellAddr() and the transferred value's raw bits (integers and
 * bools as-is, doubles bit-cast, pointers packed like addresses,
 * uninitialised cells as 0).  The postmortem diagnosis engine
 * (src/obs/postmortem/) joins these with the static backward slice to
 * reconstruct the racy access pair behind a recovery episode.
 *
 * CoverageNovel / CoverageSnapshot are *annotation* events: the VM
 * never emits them.  The coverage folder (src/obs/coverage/) appends
 * them after a run, stamped with the clock/step/tid at which the run
 * discovered each new interleaving edge, so exported traces and
 * timelines show when coverage grew.
 */
enum class EventKind : uint8_t {
    ThreadSpawn,
    SchedSwitch,
    SchedPoint,
    Checkpoint,
    Rollback,
    CompensationFree,
    CompensationUnlock,
    Backoff,
    LockAcquire,
    LockBlock,
    LockTimeout,
    FailureSite,
    ChaosRollback,
    RecoveryDone,
    SharedLoad,
    SharedStore,
    CoverageNovel,
    CoverageSnapshot,
};

inline constexpr size_t kEventKindCount =
    size_t(EventKind::CoverageSnapshot) + 1;

/**
 * @name Packed cell addresses (SharedLoad / SharedStore payload `a`)
 *
 * A VM memory cell is (segment, block, offset).  Diagnosis events pack
 * that triple into one uint64 so the recorder's fixed-width payload
 * words can carry it: segment in the top 2 bits, block in the middle
 * 38, offset (non-negative, < 2^24 because no block may hold more
 * than ir::kMaxBlockCells cells) in the low 24.  The VM packs with packCellAddr(); the diagnosis engine
 * unpacks with the accessors, so both sides agree by construction.
 * @{
 */

inline constexpr uint64_t packCellAddr(uint8_t seg, uint32_t block,
                                       int64_t offset)
{
    return (uint64_t(seg & 3) << 62) | (uint64_t(block) << 24) |
           (uint64_t(offset) & 0xFFFFFF);
}

inline constexpr uint8_t cellSeg(uint64_t packed)
{
    return uint8_t(packed >> 62);
}

inline constexpr uint32_t cellBlock(uint64_t packed)
{
    return uint32_t((packed >> 24) & 0x3FFFFFFFFFull);
}

inline constexpr int64_t cellOffset(uint64_t packed)
{
    return int64_t(packed & 0xFFFFFF);
}

/** @} */

/** Stable lowercase name ("rollback", "lock-acquire", ...). */
const char *eventKindName(EventKind k);

/** One recorded event. */
struct TraceEvent
{
    uint64_t seq = 0;   ///< global record order (total order of events)
    uint64_t clock = 0; ///< virtual time at the event
    uint64_t step = 0;  ///< executed-instruction count at the event
    uint64_t a = 0;     ///< kind-specific payload (see EventKind)
    uint64_t b = 0;     ///< kind-specific payload (see EventKind)
    uint32_t tid = 0;   ///< VM thread the event belongs to
    EventKind kind = EventKind::ThreadSpawn;
    std::string tag;    ///< site tag, when the kind carries one

    bool operator==(const TraceEvent &) const = default;
};

/**
 * How a full per-thread buffer behaves.
 *
 * Ring (the default) keeps the newest `capacity` events per thread and
 * overwrites older ones — bounded memory, suited to always-on
 * observability, but the retained stream is a *suffix*.  Grow never
 * drops: the buffer extends past the capacity hint, so dropped() stays
 * zero for every thread.  Replay-grade recording requires Grow (or a
 * ring that provably never wrapped): building a ReplayLog from a
 * wrapped recorder hard-errors with the drop count, because a replay
 * reconstructed from a truncated prefix would silently diverge from
 * the episode it claims to reproduce (src/obs/replay/).
 */
enum class RecorderMode : uint8_t {
    Ring, ///< fixed capacity, newest events win
    Grow, ///< capacity is an initial reservation; never drops
};

/** Per-thread ring buffers + per-kind totals. */
class FlightRecorder
{
  public:
    /** @p perThreadCapacity = events retained per thread (newest win;
     *  clamped to >= 1).  Under RecorderMode::Grow it is only the
     *  initial reservation — the buffer grows instead of wrapping. */
    explicit FlightRecorder(size_t perThreadCapacity = 4096,
                            RecorderMode mode = RecorderMode::Ring);

    void record(uint32_t tid, EventKind kind, uint64_t clock,
                uint64_t step, uint64_t a = 0, uint64_t b = 0,
                std::string tag = {});

    /** Highest thread id seen + 1 (0 when nothing was recorded). */
    size_t threadCount() const { return rings_.size(); }

    /** Events still retained for @p tid, oldest first. */
    std::vector<TraceEvent> threadEvents(uint32_t tid) const;

    /** All retained events of all threads, in record (seq) order. */
    std::vector<TraceEvent> merged() const;

    /** Events ever recorded for @p tid (including overwritten ones). */
    uint64_t totalRecorded(uint32_t tid) const;

    /** Events overwritten by ring wraparound for @p tid. */
    uint64_t dropped(uint32_t tid) const;

    uint64_t totalRecordedAll() const { return nextSeq_; }
    uint64_t droppedAll() const;

    /** Events of @p k ever recorded; survives wraparound, so these
     *  totals are comparable against RunStats counters. */
    uint64_t totalOf(EventKind k) const
    {
        return kindTotals_[size_t(k)];
    }

    size_t capacity() const { return cap_; }

    RecorderMode mode() const { return mode_; }

    /** Forgets all events and totals (capacity is kept). */
    void clear();

  private:
    struct Ring
    {
        std::vector<TraceEvent> buf; ///< grows to cap_, then wraps
        size_t next = 0;             ///< overwrite position once full
        uint64_t total = 0;          ///< events ever recorded
    };

    size_t cap_;
    RecorderMode mode_ = RecorderMode::Ring;
    uint64_t nextSeq_ = 0;
    std::vector<Ring> rings_; ///< indexed by thread id
    uint64_t kindTotals_[kEventKindCount] = {};
};

} // namespace conair::obs
