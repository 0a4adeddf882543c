/**
 * @file
 * The experiment harness: compiles an application, optionally hardens
 * it with ConAir, and runs it under clean or failure-forcing schedules.
 * The benches for Tables 3-7 are built on these primitives (§5 of the
 * paper describes the methodology they mirror).
 */
#pragma once

#include <memory>

#include "apps/app_spec.h"
#include "conair/driver.h"
#include "explore/campaign.h"
#include "ir/module.h"
#include "obs/replay/minimize.h"
#include "vm/interp.h"

namespace conair::apps {

/** How to prepare the program. */
struct HardenOptions
{
    bool applyConAir = true;
    ca::ConAirOptions conair;

    /** Strip the developer's oracle() annotations before compiling
     *  (models survival mode without output-correctness conditions). */
    bool stripOracles = false;
};

/** A compiled (and possibly hardened) application. */
struct PreparedApp
{
    const AppSpec *spec = nullptr;
    std::unique_ptr<ir::Module> module;
    ca::ConAirReport report; ///< empty when ConAir was not applied
    bool hardened = false;
};

/** Compiles @p app per @p opts; fatal() on compile errors (the bundled
 *  sources are expected to be valid). */
PreparedApp prepareApp(const AppSpec &app, const HardenOptions &opts);

/** Runs a clean (no forced interleaving) execution with @p seed. */
vm::RunResult runClean(const PreparedApp &p, uint64_t seed);

/** Runs one failure-forcing execution with @p seed. */
vm::RunResult runBuggy(const PreparedApp &p, uint64_t seed);

/** Did this run behave correctly (outcome, output, exit code)? */
bool runIsCorrect(const AppSpec &app, const vm::RunResult &r);

/** Aggregated recovery trial (paper §5: repeated failure runs). */
struct RecoveryTrial
{
    unsigned runs = 0;
    unsigned correct = 0;          ///< fully correct executions
    unsigned failures = 0;         ///< runs ending in the app's failure
    unsigned wrongOutput = 0;      ///< silent wrong-output runs
    unsigned otherBad = 0;         ///< hangs/timeouts/unexpected traps
    uint64_t totalRollbacks = 0;
    uint64_t totalRetriesMax = 0;  ///< max retries in one recovery
    double recoveryMicrosAvg = 0;  ///< mean recovery latency
    double recoveryMicrosMax = 0;

    bool allCorrect() const { return runs > 0 && correct == runs; }
};

/** Runs @p n failure-forcing executions with seeds 1..n. */
RecoveryTrial runRecoveryTrial(const PreparedApp &p, unsigned n);

/**
 * Measures run-time overhead: mean clean-run instruction count of the
 * hardened program relative to the original, over @p runs seeds
 * (paper §5 uses 20).  Returns the overhead fraction (0.01 == 1 %).
 */
double measureOverhead(const AppSpec &app, const HardenOptions &opts,
                       unsigned runs);

/**
 * @name Campaign entry points (schedule exploration, src/explore/)
 *
 * A campaign needs the unhardened and the hardened build of one kernel
 * side by side, plus the correctness expectations and a calibrated
 * PCT horizon.  These helpers bridge the registry to the exploration
 * engine; bench_explore, tools/conair.cpp and the campaign tests are
 * built on them.
 * @{
 */

/** The two builds of one kernel a campaign compares. */
struct CampaignApp
{
    const AppSpec *spec = nullptr;
    PreparedApp plain;    ///< unhardened build
    PreparedApp hardened; ///< survival-mode ConAir build
};

/** Compiles both campaign builds of @p app. */
CampaignApp prepareCampaignApp(const AppSpec &app);

/**
 * Converts a prepared kernel into an exploration target: wires both
 * modules, the expected output/exit, the mustRecover oracle (all ten
 * kernels recover under full survival hardening), and a PCT horizon
 * calibrated from a clean run.  The CampaignApp must outlive the
 * returned target (modules are borrowed).
 */
explore::Target campaignTarget(const CampaignApp &app);

/**
 * Runs @p p under an explicit scheduler configuration with the app's
 * hand-scripted trigger delays stripped — campaign schedules must
 * find the buggy interleavings themselves.
 */
vm::RunResult runUnderSchedule(const PreparedApp &p, vm::VmConfig cfg);

/**
 * The scripted failure probe: runs @p app's unhardened build under its
 * failure-forcing schedule (AppSpec::buggyConfig, trigger delays
 * included) over seeds 1..8, recorded replay-grade, and stores the
 * first failing run in @p out.  False when no seed fails.
 */
bool probeScriptedFailure(const CampaignApp &app,
                          obs::replay::RecordedRun &out);

/** @} */

/**
 * The failure-site tags a developer would observe from one failing run
 * of the *original* program (an assert message, a crash location, the
 * locks a hung process blocks on) — exactly the input ConAir's fix
 * mode needs (§3.1.2).
 */
std::vector<std::string> observedFailureTags(const AppSpec &app);

} // namespace conair::apps
