/**
 * @file
 * Table 9: mis-speculations per committed load with blind speculation
 * versus the proposed prediction/synchronization mechanism.
 */

#include <iostream>

#include "bench_common.hh"

using namespace mdp;

TextTable
table9MisspecRate(ShapeChecks &sc)
{
    const std::vector<std::string> policies = {"always", "sync",
                                               "esync"};

    ExperimentRunner<SimResult> runner;
    for (const auto &name : specInt92Names())
        for (unsigned stages : {4u, 8u})
            for (const std::string &p : policies)
                runner.add(multiscalarCell(name, stages, p));
    const std::vector<SimResult> results = runner.runAll();

    TextTable t({"stages", "benchmark", "ALWAYS", "SYNC", "ESYNC"});

    size_t idx = 0;
    for (const auto &name : specInt92Names()) {
        for (unsigned stages : {4u, 8u}) {
            const SimResult &always = results[idx++];
            const SimResult &syncr = results[idx++];
            const SimResult &esync = results[idx++];

            t.beginRow();
            t.integer(stages);
            t.cell(name);
            t.num(always.misspecPerLoad(), 4);
            t.num(syncr.misspecPerLoad(), 4);
            t.num(esync.misspecPerLoad(), 4);

            std::string tag =
                name + " " + std::to_string(stages) + "st";
            sc.check(esync.misspecPerLoad() <
                         always.misspecPerLoad(),
                     tag + ": the mechanism reduces mis-speculations");
            sc.check(esync.misspecPerLoad() < 0.05,
                     tag + ": residual rate is a few percent of loads "
                           "at most");
        }
    }
    t.print(std::cout);
    std::printf("\n");
    return t;
}
