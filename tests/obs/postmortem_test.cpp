/**
 * @file
 * Postmortem diagnosis engine tests.
 *
 * The centerpiece runs every bundled kernel under its failure-forcing
 * schedule in diagnosis recording mode, feeds the trace to
 * obs::pm::diagnose(), and asserts that the reconstructed racy pair
 * names the kernel's documented racing variable and that the verdict
 * matches the Table 2 root-cause taxonomy ("A Vio." / "O Vio." /
 * "A/O Vio." / deadlock).  This pins the whole chain: VM shared-access
 * events -> trace indexing -> backward-slice join -> verdict ladder.
 */
#include <set>

#include <gtest/gtest.h>

#include "apps/harness.h"
#include "obs/postmortem/diagnosis.h"
#include "obs/trace.h"
#include "support/json.h"
#include "vm/interp.h"

namespace conair {
namespace {

using obs::pm::Verdict;

/** The shared variable (or mutex) at the heart of each kernel's bug —
 *  the name diagnosis must reconstruct from the trace. */
const char *
expectedRacingVariable(const std::string &app)
{
    if (app == "FFT")
        return "im_energy";
    if (app == "HawkNL")
        return "nlock";
    if (app == "HTTrack")
        return "opt";
    if (app == "MozillaJS")
        return "gc_lock";
    if (app == "MozillaXP")
        return "m_thd";
    if (app == "MySQL1")
        return "log_open";
    if (app == "MySQL2")
        return "table_cache";
    if (app == "SQLite")
        return "db_mutex";
    if (app == "Transmission")
        return "session_bandwidth";
    if (app == "ZSNES")
        return "sound_ready";
    return "";
}

/** Runs one kernel's scripted buggy schedule (hardened build, so the
 *  run recovers) in diagnosis mode and returns the report.  Seeds are
 *  probed until one actually exercises recovery. */
obs::pm::RecoveryReport
diagnoseKernel(const apps::AppSpec &spec, uint64_t *seedUsed)
{
    apps::PreparedApp p =
        apps::prepareApp(spec, apps::HardenOptions{});
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        obs::FlightRecorder rec(65536);
        vm::VmConfig cfg = spec.buggyConfig;
        cfg.seed = seed;
        cfg.recorder = &rec;
        cfg.recordSharedAccesses = true;
        vm::RunResult r = vm::runProgram(*p.module, cfg);
        if (r.stats.rollbacks == 0)
            continue;
        if (seedUsed)
            *seedUsed = seed;
        return obs::pm::diagnose(rec, *p.module, spec.name);
    }
    ADD_FAILURE() << spec.name
                  << ": no seed in 1..8 exercised recovery";
    return {};
}

TEST(Postmortem, DiagnosesEveryKernelsDocumentedBug)
{
    for (const apps::AppSpec &spec : apps::allApps()) {
        SCOPED_TRACE(spec.name);
        uint64_t seed = 0;
        obs::pm::RecoveryReport rep = diagnoseKernel(spec, &seed);
        ASSERT_FALSE(rep.episodes.empty())
            << spec.name << ": no recovery episodes in the trace";

        const obs::pm::EpisodeReport *ep = rep.primary();
        ASSERT_NE(ep, nullptr);
        EXPECT_NE(ep->verdict, Verdict::Unknown)
            << spec.name << " seed " << seed;
        EXPECT_TRUE(obs::pm::verdictMatchesRootCause(
            ep->verdict, apps::rootCauseName(spec.rootCause)))
            << spec.name << ": verdict "
            << obs::pm::verdictName(ep->verdict) << " vs root cause "
            << apps::rootCauseName(spec.rootCause);
        EXPECT_EQ(ep->variable, expectedRacingVariable(spec.name))
            << spec.name;
        EXPECT_TRUE(ep->recovered) << spec.name;
        EXPECT_TRUE(ep->failingAccess.valid) << spec.name;
        EXPECT_TRUE(ep->racingAccess.valid) << spec.name;
        // The pair is a genuine cross-thread conflict.
        if (ep->failingAccess.valid && ep->racingAccess.valid) {
            EXPECT_NE(ep->failingAccess.tid, ep->racingAccess.tid)
                << spec.name;
        }
    }
}

TEST(Postmortem, ReportExportersAreDeterministic)
{
    const apps::AppSpec *spec = apps::findApp("MySQL1");
    ASSERT_NE(spec, nullptr);
    obs::pm::RecoveryReport a = diagnoseKernel(*spec, nullptr);
    obs::pm::RecoveryReport b = diagnoseKernel(*spec, nullptr);
    EXPECT_EQ(obs::pm::renderText(a), obs::pm::renderText(b));
    EXPECT_EQ(obs::pm::toJson(a), obs::pm::toJson(b));
}

TEST(Postmortem, TextReportCarriesTheInterleavingDiagram)
{
    const apps::AppSpec *spec = apps::findApp("MySQL1");
    ASSERT_NE(spec, nullptr);
    obs::pm::RecoveryReport rep = diagnoseKernel(*spec, nullptr);
    std::string text = obs::pm::renderText(rep);
    EXPECT_NE(text.find("=== recovery diagnosis: MySQL1"),
              std::string::npos);
    EXPECT_NE(text.find("(failing)"), std::string::npos);
    EXPECT_NE(text.find("(racing)"), std::string::npos);
    EXPECT_NE(text.find("scheduler switch"), std::string::npos);
    EXPECT_NE(text.find("log_open"), std::string::npos);
}

TEST(Postmortem, JsonReportIsWellFormed)
{
    const apps::AppSpec *spec = apps::findApp("ZSNES");
    ASSERT_NE(spec, nullptr);
    obs::pm::RecoveryReport rep = diagnoseKernel(*spec, nullptr);
    std::string json = obs::pm::toJson(rep);
    for (const char *key :
         {"\"program\"", "\"episodes\"", "\"verdict\"", "\"variable\"",
          "\"switch_window\"", "\"failing_access\"",
          "\"racing_access\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(Postmortem, VerdictTaxonomyMapping)
{
    using obs::pm::verdictMatchesRootCause;
    EXPECT_TRUE(verdictMatchesRootCause(Verdict::Deadlock, "deadlock"));
    EXPECT_FALSE(
        verdictMatchesRootCause(Verdict::OrderViolation, "deadlock"));
    EXPECT_TRUE(verdictMatchesRootCause(Verdict::AtomicityViolation,
                                        "A Vio."));
    EXPECT_TRUE(verdictMatchesRootCause(Verdict::LostUpdate, "A Vio."));
    EXPECT_FALSE(
        verdictMatchesRootCause(Verdict::OrderViolation, "A Vio."));
    EXPECT_TRUE(
        verdictMatchesRootCause(Verdict::OrderViolation, "O Vio."));
    EXPECT_FALSE(verdictMatchesRootCause(Verdict::AtomicityViolation,
                                         "O Vio."));
    EXPECT_TRUE(verdictMatchesRootCause(Verdict::AtomicityViolation,
                                        "A/O Vio."));
    EXPECT_TRUE(
        verdictMatchesRootCause(Verdict::OrderViolation, "A/O Vio."));
    EXPECT_FALSE(
        verdictMatchesRootCause(Verdict::Deadlock, "A/O Vio."));
    EXPECT_FALSE(verdictMatchesRootCause(Verdict::Unknown, "A Vio."));
}

TEST(Postmortem, VerdictNamesRoundTripExhaustively)
{
    using obs::pm::verdictFromName;
    using obs::pm::verdictName;
    const Verdict all[] = {
        Verdict::AtomicityViolation, Verdict::OrderViolation,
        Verdict::LostUpdate, Verdict::Deadlock, Verdict::Unknown};
    // name -> verdict -> name is the identity for every enumerator,
    // and all five names are distinct.
    std::set<std::string> names;
    for (Verdict v : all) {
        std::string name = verdictName(v);
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate verdict name " << name;
        Verdict back = Verdict::Unknown;
        ASSERT_TRUE(verdictFromName(name, back)) << name;
        EXPECT_EQ(back, v) << name;
    }
    // Unrecognised names are rejected and leave the out-param alone.
    Verdict out = Verdict::Deadlock;
    EXPECT_FALSE(verdictFromName("", out));
    EXPECT_FALSE(verdictFromName("race-condition", out));
    EXPECT_FALSE(verdictFromName("Lost-Update", out)); // case-sensitive
    EXPECT_EQ(out, Verdict::Deadlock);
}

TEST(Postmortem, VerdictTaxonomyTruthTableIsExhaustive)
{
    using obs::pm::verdictMatchesRootCause;
    // Every (verdict, Table 2 root-cause label) cell, spelled out: the
    // compatibility relation is part of the fix engine's dispatch
    // contract, so no cell may drift silently.
    struct Row
    {
        Verdict v;
        bool deadlock, aVio, oVio, aoVio;
    };
    const Row table[] = {
        {Verdict::AtomicityViolation, false, true, false, true},
        {Verdict::OrderViolation, false, false, true, true},
        {Verdict::LostUpdate, false, true, false, true},
        {Verdict::Deadlock, true, false, false, false},
        {Verdict::Unknown, false, false, false, false},
    };
    for (const Row &r : table) {
        EXPECT_EQ(verdictMatchesRootCause(r.v, "deadlock"), r.deadlock)
            << obs::pm::verdictName(r.v);
        EXPECT_EQ(verdictMatchesRootCause(r.v, "A Vio."), r.aVio)
            << obs::pm::verdictName(r.v);
        EXPECT_EQ(verdictMatchesRootCause(r.v, "O Vio."), r.oVio)
            << obs::pm::verdictName(r.v);
        EXPECT_EQ(verdictMatchesRootCause(r.v, "A/O Vio."), r.aoVio)
            << obs::pm::verdictName(r.v);
        // Unknown labels match nothing.
        EXPECT_FALSE(verdictMatchesRootCause(r.v, "B Vio."));
        EXPECT_FALSE(verdictMatchesRootCause(r.v, ""));
    }
}

TEST(Postmortem, PackedCellAddressRoundTrips)
{
    for (uint8_t seg : {0, 1, 2, 3})
        for (uint32_t block : {0u, 1u, 7u, 4095u})
            for (int64_t off : {int64_t(0), int64_t(1), int64_t(255),
                                int64_t((1 << 24) - 1)}) {
                uint64_t packed = obs::packCellAddr(seg, block, off);
                EXPECT_EQ(obs::cellSeg(packed), seg);
                EXPECT_EQ(obs::cellBlock(packed), block);
                EXPECT_EQ(obs::cellOffset(packed), off);
            }
}

TEST(Postmortem, EmptyTraceProducesEmptyReport)
{
    const apps::AppSpec *spec = apps::findApp("MySQL1");
    ASSERT_NE(spec, nullptr);
    apps::PreparedApp p =
        apps::prepareApp(*spec, apps::HardenOptions{});
    obs::FlightRecorder rec(64); // never attached to a run
    obs::pm::RecoveryReport rep =
        obs::pm::diagnose(rec, *p.module, "MySQL1");
    EXPECT_TRUE(rep.episodes.empty());
    EXPECT_EQ(rep.events, 0u);
    EXPECT_EQ(rep.primary(), nullptr);
    // Both exporters cope with an empty report.
    EXPECT_NE(obs::pm::renderText(rep).find("no recovery episodes"),
              std::string::npos);
    EXPECT_FALSE(obs::pm::toJson(rep).empty());
}

} // namespace
} // namespace conair
