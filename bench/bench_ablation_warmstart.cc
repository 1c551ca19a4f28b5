/**
 * @file
 * Ablation A7: compiler-exposed synchronization (section 6): static
 * dependence edges preloaded into the MDPT eliminate the hardware's
 * mis-speculation training; the benefit is largest for short runs and
 * for programs with many edges.
 */

#include <iostream>

#include "bench_common.hh"

using namespace mdp;

TextTable
ablationWarmstart(ShapeChecks &sc)
{
    // Short traces: warm-up costs are proportionally largest.
    double scale = benchScale() * 0.2;

    // One cell per workload: the cold ESYNC run, then the same run
    // with the analyzed static edges preloaded.
    struct WarmStart
    {
        size_t edges = 0;
        SimResult cold, warm;
    };
    ExperimentRunner<WarmStart> runner;
    for (const auto &name : specInt92Names()) {
        runner.add([name, scale] {
            const WorkloadContext &ctx = cachedContext(name, scale);
            MultiscalarConfig cfg = makeMultiscalarConfig(ctx, 8, "esync");
            WarmStart ws;
            ws.cold = runMultiscalar(ctx, cfg);
            cfg.preloadEdges = analyzeStaticEdges(ctx, 16);
            ws.edges = cfg.preloadEdges.size();
            ws.warm = runMultiscalar(ctx, cfg);
            return ws;
        });
    }
    const std::vector<WarmStart> results = runner.runAll();

    TextTable t({"benchmark", "edges", "cold misspec", "warm misspec",
                 "cold IPC", "warm IPC"});

    size_t idx = 0;
    for (const auto &name : specInt92Names()) {
        const auto &[edges, cold, warm] = results[idx++];

        t.beginRow();
        t.cell(name);
        t.integer(edges);
        t.cell(formatCount(cold.misSpeculations));
        t.cell(formatCount(warm.misSpeculations));
        t.num(cold.ipc(), 2);
        t.num(warm.ipc(), 2);

        sc.check(warm.committedOps ==
                     cachedContext(name, scale).trace().size(),
                 name + ": preloaded run completes");
        sc.check(warm.misSpeculations <= cold.misSpeculations,
                 name + ": preloading never adds mis-speculations");
    }
    t.print(std::cout);
    std::printf("\n");
    return t;
}
