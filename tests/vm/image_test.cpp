/**
 * @file
 * The module image (vm::Image): runs on one shared image equal runs on
 * private ones on every engine variant, several threads may run one
 * image at the same time, and the image builds its globals' initial
 * cells only when they fit the guest memory budget.
 */
#include <thread>

#include "apps/app_spec.h"
#include "apps/harness.h"
#include "explore/campaign.h"
#include "support/str.h"
#include "tests/support/engine_variants.h"
#include "tests/vm/vm_test_util.h"

namespace conair::vm {
namespace {

using conair::testutil::EngineVariant;
using conair::testutil::expectSameRun;
using conair::testutil::kEngineVariants;

/** The ten kernels' campaign builds and their calibrated targets. */
struct Kernels
{
    std::vector<apps::CampaignApp> apps;
    std::vector<explore::Target> targets;
};

const Kernels &
kernels()
{
    static const Kernels k = [] {
        Kernels k;
        for (const apps::AppSpec &spec : apps::allApps())
            k.apps.push_back(apps::prepareCampaignApp(spec));
        for (const apps::CampaignApp &app : k.apps)
            k.targets.push_back(apps::campaignTarget(app));
        return k;
    }();
    return k;
}

/** The hardened leg's config of campaign cell (@p t, @p s): chaos on
 *  the even seeds, as runOneSchedule does. */
VmConfig
hardenedConfig(const explore::Target &t, const explore::ScheduleSpec &s)
{
    const explore::CampaignOptions opts;
    VmConfig cfg = explore::makeBaseConfig(t, s, opts);
    if (s.seed % 2 == 0)
        cfg.chaosRollbackEveryN = opts.chaosEveryN;
    return cfg;
}

explore::ScheduleSpec
spec(SchedPolicy policy, uint64_t seed, uint32_t depth)
{
    explore::ScheduleSpec s;
    s.policy = policy;
    s.seed = seed;
    s.depth = depth;
    return s;
}

TEST(ImageSharing, RunsOnOneImageEqualRunsOnPrivateImages)
{
    // Every run below reads the image the runs before it read: none of
    // them may leave a trace in it.
    for (const explore::Target &t : kernels().targets) {
        const Image image(*t.hardened);
        for (const auto &[policy, depth] : explore::CampaignOptions{}.policies)
            for (uint64_t seed = 1; seed <= 4; ++seed) {
                const explore::ScheduleSpec s = spec(policy, seed, depth);
                for (const EngineVariant &v : kEngineVariants) {
                    VmConfig cfg = hardenedConfig(t, s);
                    v.applyTo(cfg);
                    expectSameRun(runProgram(*t.hardened, cfg),
                                  runProgram(image, cfg),
                                  t.name + " " + s.token() + " " + v.name);
                }
            }
    }
}

TEST(ImageSharing, FourThreadsRunOneImageAtOnce)
{
    // Each thread runs every kernel's image in the same order on both
    // engines, so the four threads read each image at the same time.
    const Kernels &k = kernels();
    std::vector<std::unique_ptr<const Image>> images;
    for (const explore::Target &t : k.targets)
        images.push_back(std::make_unique<const Image>(*t.hardened));
    constexpr unsigned kThreads = 4;
    const ExecEngine engines[] = {ExecEngine::Fused, ExecEngine::Reference};
    auto config = [&](size_t kernel, unsigned worker, ExecEngine e) {
        VmConfig cfg = hardenedConfig(
            k.targets[kernel], spec(SchedPolicy::Pct, worker + 1, 3));
        cfg.engine = e;
        return cfg;
    };

    std::vector<std::vector<RunResult>> got(kThreads);
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < kThreads; ++w)
        pool.emplace_back([&, w] {
            for (size_t i = 0; i < images.size(); ++i)
                for (ExecEngine e : engines)
                    got[w].push_back(runProgram(*images[i], config(i, w, e)));
        });
    for (std::thread &th : pool)
        th.join();

    for (unsigned w = 0; w < kThreads; ++w) {
        size_t n = 0;
        for (size_t i = 0; i < images.size(); ++i)
            for (ExecEngine e : engines)
                expectSameRun(
                    runProgram(*k.targets[i].hardened, config(i, w, e)),
                    got[w][n++],
                    strfmt("%s thread %u %s", k.targets[i].name.c_str(), w,
                           e == ExecEngine::Fused ? "fused" : "reference"));
    }
}

TEST(ImageBudget, GlobalsWithinTheBudgetHoldTheirInitialCells)
{
    auto m = testutil::compileC(R"(
int arr[3] = {4, 5};
double d = 2.5;
int *p;
int main() { return arr[0]; }
)");
    ASSERT_TRUE(m);
    const Image image(*m);
    ASSERT_EQ(image.globals().size(), m->globals().size());
    EXPECT_EQ(image.globalBytes(), 5 * sizeof(RtValue));
    const auto &arr = image.globals()[m->findGlobal("arr")->id()];
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_EQ(arr[0].i, 4);
    EXPECT_EQ(arr[1].i, 5);
    EXPECT_EQ(arr[2].kind, ir::Type::I64);
    EXPECT_EQ(arr[2].i, 0);
    const auto &d = image.globals()[m->findGlobal("d")->id()];
    EXPECT_EQ(d.at(0).kind, ir::Type::F64);
    EXPECT_EQ(d.at(0).f, 2.5);
    const auto &p = image.globals()[m->findGlobal("p")->id()];
    EXPECT_EQ(p.at(0).kind, ir::Type::Ptr);
    EXPECT_TRUE(p.at(0).p.isNull());
}

TEST(ImageBudget, GlobalsPastTheBudgetBuildNoCells)
{
    // About 3.4 GB of cells if they were built.
    std::string src;
    for (int i = 1; i <= 5; ++i)
        src += "int g" + std::to_string(i) + "[16777216];\n";
    src += "int main() { print(1); return g1[0]; }\n";
    auto m = testutil::compileC(src);
    ASSERT_TRUE(m);
    const Image image(*m);
    EXPECT_TRUE(image.globals().empty());
    EXPECT_EQ(image.globalBytes(), 5 * (uint64_t(1) << 24) * sizeof(RtValue));
    for (const EngineVariant &v : kEngineVariants) {
        VmConfig cfg;
        v.applyTo(cfg);
        RunResult r = runProgram(image, cfg);
        EXPECT_EQ(r.outcome, Outcome::Trap) << v.name;
        EXPECT_EQ(r.failureMsg,
                  "guest memory exceeds the " +
                      std::to_string(kGuestMemoryBytes) + "-byte budget")
            << v.name;
        EXPECT_EQ(r.stats.steps, 0u) << v.name;
        EXPECT_EQ(r.output, "") << v.name;
    }
}

} // namespace
} // namespace conair::vm
