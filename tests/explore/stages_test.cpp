/**
 * @file
 * The campaign's named stages (explore/stages.h, fix::fixStage) on a
 * small ZSNES + MySQL1 campaign: what each stage fills in, that an
 * artifact directory under a regular file is a reported error rather
 * than a host abort, and that live telemetry only moves forward
 * across back-to-back campaigns.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <deque>
#include <fstream>
#include <sstream>
#include <thread>

#include "apps/harness.h"
#include "explore/stages.h"
#include "explore/telemetry.h"
#include "fix/fix.h"
#include "fix/validate.h"
#include "obs/replay/replay_run.h"
#include "tests/support/temp_path.h"

namespace conair::explore {
namespace {

using conair::testutil::TempPath;

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** Minimal JSON well-formedness check (values, objects, arrays,
 *  strings with escapes, numbers, literals). */
struct JsonCheck
{
    const std::string &s;
    size_t at = 0;

    static bool
    valid(const std::string &text)
    {
        JsonCheck c{text};
        return c.value() && (c.ws(), c.at == text.size());
    }

    void ws()
    {
        while (at < s.size() && std::isspace((unsigned char)s[at]))
            ++at;
    }
    bool eat(char c)
    {
        ws();
        if (at < s.size() && s[at] == c) {
            ++at;
            return true;
        }
        return false;
    }
    bool string()
    {
        if (!eat('"'))
            return false;
        while (at < s.size() && s[at] != '"')
            at += s[at] == '\\' ? 2 : 1;
        return at++ < s.size();
    }
    bool value()
    {
        ws();
        if (at >= s.size())
            return false;
        char c = s[at];
        if (c == '"')
            return string();
        if (c == '{' || c == '[') {
            char close = c == '{' ? '}' : ']';
            ++at;
            if (eat(close))
                return true;
            do {
                if (c == '{' && !(string() && eat(':')))
                    return false;
                if (!value())
                    return false;
            } while (eat(','));
            return eat(close);
        }
        size_t start = at;
        while (at < s.size() &&
               (std::isalnum((unsigned char)s[at]) || s[at] == '-' ||
                s[at] == '+' || s[at] == '.'))
            ++at;
        return at > start;
    }
};

class StageFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        for (const char *name : {"ZSNES", "MySQL1"}) {
            const apps::AppSpec *spec = apps::findApp(name);
            ASSERT_NE(spec, nullptr) << name;
            prepared_.push_back(apps::prepareCampaignApp(*spec));
        }
        for (const apps::CampaignApp &a : prepared_)
            targets_.push_back(apps::campaignTarget(a));
        // 12 seeds reach MySQL1's first failure (pb:d2:s11).
        opts_.seedsPerPolicy = 12;
        opts_.maxSteps = 2'000'000;
        opts_.stopAfterFailures = 1;
        opts_.collectCoverage = true;
    }

    /** A fresh scratch directory for this test, removed after it. */
    std::string
    scratchDir(const std::string &name)
    {
        return temps_.emplace_back("stages_test_" + name).str();
    }

    /** A regular file, so "<it>/sub" can never be created. */
    std::string
    regularFile(const std::string &name)
    {
        std::string path = scratchDir(name);
        std::ofstream(path) << "not a directory\n";
        return path;
    }

    std::deque<TempPath> temps_;
    std::vector<apps::CampaignApp> prepared_;
    std::vector<Target> targets_;
    CampaignOptions opts_;
};

TEST_F(StageFixture, DiagnosisStageMatchesTheRootCause)
{
    CampaignReport rep = runCampaign(targets_, opts_);
    diagnoseStage(targets_, opts_, rep);
    for (size_t i = 0; i < rep.targets.size(); ++i) {
        const TargetReport &tr = rep.targets[i];
        ASSERT_TRUE(tr.foundFailure) << tr.name;
        ASSERT_TRUE(tr.hasDiagnosis) << tr.name;
        EXPECT_EQ(tr.diagnosisLeg, "hardened") << tr.name;
        const obs::pm::EpisodeReport *primary = tr.diagnosis.primary();
        ASSERT_NE(primary, nullptr) << tr.name;
        EXPECT_TRUE(obs::pm::verdictMatchesRootCause(
            primary->verdict,
            apps::rootCauseName(prepared_[i].spec->rootCause)))
            << tr.name << ": " << obs::pm::verdictName(primary->verdict);
    }
}

TEST_F(StageFixture, ReplayCorpusStageSavesFaithfulMinimisedLogs)
{
    CampaignReport rep = runCampaign(targets_, opts_);
    replayCorpusStage(targets_, opts_, scratchDir("replay"), rep);
    for (size_t i = 0; i < rep.targets.size(); ++i) {
        const TargetReport &tr = rep.targets[i];
        ASSERT_TRUE(tr.hasReplayLog) << tr.name << ": " << tr.replayError;
        EXPECT_TRUE(tr.replayCrossEngineVerified) << tr.name;
        EXPECT_LE(tr.replayMinimizedSwitches, tr.replayOriginalSwitches)
            << tr.name;
        obs::replay::ReplayLog log;
        std::string err;
        ASSERT_TRUE(obs::replay::loadReplayLog(tr.replayLogPath, log, err))
            << err;
        EXPECT_EQ(log.switches.size(), tr.replayMinimizedSwitches);
        for (vm::ExecEngine e :
             {vm::ExecEngine::Fused, vm::ExecEngine::Reference}) {
            obs::replay::ReplayRun r =
                obs::replay::replayLog(*targets_[i].plain, log, e);
            EXPECT_TRUE(r.faithful)
                << tr.name << " " << obs::replay::engineName(e) << ": "
                << r.mismatch;
        }
    }
}

/** A target whose "hardened" build is the plain one cannot recover,
 *  so under mustRecover its campaign trips the recovery oracle. */
TEST_F(StageFixture, AbortFlushStageWritesTraceAndDiagnosis)
{
    std::vector<Target> broken = {targets_[0]};
    broken[0].hardened = broken[0].plain;
    broken[0].mustRecover = true;
    CampaignReport rep = runCampaign(broken, opts_);
    ASSERT_TRUE(rep.targets[0].hasUnrecovered);

    std::string dir = scratchDir("abort");
    EXPECT_EQ(abortFlushStage(broken, opts_, dir, rep), "");
    const TargetReport &tr = rep.targets[0];
    ASSERT_EQ(tr.abortArtifacts.size(), 3u);
    std::string token = tr.firstUnrecovered.token();
    std::replace(token.begin(), token.end(), ':', '-');
    std::string stem = dir + "/ZSNES_" + token;
    EXPECT_EQ(tr.abortArtifacts[0], stem + "_trace.json");
    EXPECT_EQ(tr.abortArtifacts[1], stem + "_diagnosis.json");
    EXPECT_EQ(tr.abortArtifacts[2], stem + "_diagnosis.txt");
    for (int f = 0; f < 2; ++f) {
        std::string body = readFile(tr.abortArtifacts[f]);
        EXPECT_FALSE(body.empty()) << tr.abortArtifacts[f];
        EXPECT_TRUE(JsonCheck::valid(body)) << tr.abortArtifacts[f];
    }
    std::string text = readFile(tr.abortArtifacts[2]);
    EXPECT_NE(text.find("ZSNES"), std::string::npos) << text;
}

TEST_F(StageFixture, FixStageValidatesWithoutTouchingTheCorpus)
{
    CampaignReport rep = runCampaign(targets_, opts_);
    diagnoseStage(targets_, opts_, rep);
    replayCorpusStage(targets_, opts_, scratchDir("fix_replay"), rep);
    GuidedOptions g;
    g.budget = 16;
    std::string corpusDir = scratchDir("fix_corpus");
    guidedStage(targets_, opts_, g, corpusDir, rep);
    std::vector<std::string> before;
    for (const TargetReport &tr : rep.targets) {
        ASSERT_FALSE(tr.guided.corpusPath.empty()) << tr.guided.error;
        before.push_back(readFile(tr.guided.corpusPath));
    }

    fix::ValidationOptions vopts;
    vopts.campaign = opts_;
    vopts.campaign.seedsPerPolicy = 8;
    std::vector<vm::VmConfig> clean;
    for (const apps::CampaignApp &a : prepared_)
        clean.push_back(a.spec->cleanConfig);
    std::string text = fix::fixStage(targets_, clean, vopts, rep);

    const char *strategy[] = {"wait-for-value", "lock-guard"};
    for (size_t i = 0; i < rep.targets.size(); ++i) {
        const TargetReport &tr = rep.targets[i];
        EXPECT_TRUE(tr.fix.attempted) << tr.name;
        EXPECT_TRUE(tr.fix.validated) << tr.name << ": " << tr.fix.error;
        EXPECT_EQ(tr.fix.strategy, strategy[i]) << tr.name;
        EXPECT_TRUE(tr.fix.replayChecked) << tr.name;
        EXPECT_EQ(tr.fix.patchedSchedules, 4u * 8u) << tr.name;
        EXPECT_NE(text.find(tr.fix.strategy), std::string::npos);
        // The validation campaign runs no guided search, so the guided
        // stage's corpus is exactly what that stage saved.
        EXPECT_EQ(readFile(tr.guided.corpusPath), before[i]) << tr.name;
    }
}

TEST_F(StageFixture, ArtifactDirectoryUnderAFileIsReported)
{
    std::string file = regularFile("file");
    std::string under = file + "/sub";

    CampaignReport rep = runCampaign(targets_, opts_);
    replayCorpusStage(targets_, opts_, under, rep);
    for (const TargetReport &tr : rep.targets) {
        EXPECT_FALSE(tr.hasReplayLog) << tr.name;
        EXPECT_NE(tr.replayError.find("cannot create directory"),
                  std::string::npos)
            << tr.name << ": " << tr.replayError;
    }

    GuidedOptions g;
    g.budget = 4;
    guidedStage(targets_, opts_, g, under, rep);
    for (const TargetReport &tr : rep.targets) {
        EXPECT_TRUE(tr.guided.corpusPath.empty()) << tr.name;
        EXPECT_NE(tr.guided.error.find("cannot create directory"),
                  std::string::npos)
            << tr.name << ": " << tr.guided.error;
    }

    std::vector<Target> broken = {targets_[0]};
    broken[0].hardened = broken[0].plain;
    CampaignReport brep = runCampaign(broken, opts_);
    ASSERT_TRUE(brep.targets[0].hasUnrecovered);
    std::string err = abortFlushStage(broken, opts_, under, brep);
    EXPECT_NE(err.find("cannot create directory"), std::string::npos)
        << err;
    EXPECT_TRUE(brep.targets[0].abortArtifacts.empty());
}

/** The integer member @p key of a /status or /coverage body. */
uint64_t
statusField(const std::string &status, const std::string &key)
{
    size_t at = status.find("\"" + key + "\": ");
    EXPECT_NE(at, std::string::npos) << key;
    return std::stoull(status.substr(at + key.size() + 4));
}

TEST_F(StageFixture, TelemetryCountersNeverDecreaseAcrossCampaigns)
{
    CampaignTelemetry tel(4);
    opts_.workers = 4;
    opts_.telemetry = &tel;
    opts_.stopAfterFailures = 0;

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> polls{0}, decreases{0};
    std::thread poller([&] {
        uint64_t lastDone = 0, lastTotal = 0, lastEdges = 0;
        while (!stop.load()) {
            std::string status = tel.statusJson();
            uint64_t done = statusField(status, "schedules_done");
            uint64_t total = statusField(status, "schedules_total");
            uint64_t edges =
                statusField(tel.coverageJson(), "distinct_edges");
            decreases += done < lastDone || total < lastTotal ||
                         edges < lastEdges;
            lastDone = done;
            lastTotal = total;
            lastEdges = edges;
            ++polls;
        }
    });
    CampaignReport first = runCampaign(targets_, opts_);
    CampaignReport second = runCampaign(targets_, opts_);
    stop = true;
    poller.join();

    EXPECT_GT(polls.load(), 0u);
    EXPECT_EQ(decreases.load(), 0u);
    EXPECT_EQ(tel.schedulesDone(), first.schedules + second.schedules);
    std::string status = tel.statusJson();
    EXPECT_EQ(statusField(status, "schedules_total"),
              first.schedules + second.schedules);
    EXPECT_GT(statusField(tel.coverageJson(), "distinct_edges"), 0u);
}

} // namespace
} // namespace conair::explore
