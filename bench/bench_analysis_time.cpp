/**
 * @file
 * Reproduces paper §6.4: ConAir's static analysis + transformation
 * time per application, with and without the inter-procedural pass
 * (the paper reports that inter-procedural analysis dominates).
 */
#include "bench/bench_util.h"

#include <algorithm>

#include "frontend/compile.h"

using namespace conair;
using namespace conair::apps;
using namespace conair::bench;

namespace {

/** Median: robust against the multi-ms scheduler hiccups a virtualised
 *  single-core box injects into µs-scale wall-clock samples. */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v.empty() ? 0 : v[v.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args =
        benchArgs(argc, argv, {{"--reps", FlagKind::Number, UINT_MAX}});
    unsigned reps = unsigned(args.number("--reps", 30));

    std::printf("=== Section 6.4: static analysis and transformation "
                "time (median of %u runs, microseconds) ===\n\n", reps);

    Table t({"App", "Full pipeline", "No interprocedural", "Interproc "
             "share"});
    for (const AppSpec &app : allApps()) {
        std::vector<double> with_s, without_s;
        for (unsigned i = 0; i < reps; ++i) {
            {
                DiagEngine d;
                auto m = fe::compileMiniC(app.source, d);
                ca::ConAirOptions o;
                with_s.push_back(ca::applyConAir(*m, o).analysisMicros);
            }
            {
                DiagEngine d;
                auto m = fe::compileMiniC(app.source, d);
                ca::ConAirOptions o;
                o.interproc = false;
                without_s.push_back(
                    ca::applyConAir(*m, o).analysisMicros);
            }
        }
        double with = median(with_s);
        double without = median(without_s);
        double share = with > 0 ? (with - without) / with * 100 : 0;
        t.row({app.name, fmt("%.0f", with), fmt("%.0f", without),
               fmt("%.0f%%", share > 0 ? share : 0)});
    }
    t.print();
    std::printf("\nPaper shape: analysis is fast enough for large "
                "programs; the inter-procedural pass is the dominant "
                "cost and can be disabled when the budget is tight.\n");
    return 0;
}
