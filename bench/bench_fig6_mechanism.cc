/**
 * @file
 * Figure 6: performance of the proposed mechanism (SYNC and ESYNC
 * predictors) on SPECint92, as speedup over blind speculation, with
 * PSYNC as the ideal bound.
 */

#include <iostream>

#include "bench_common.hh"

using namespace mdp;

TextTable
fig6Mechanism(ShapeChecks &sc)
{
    const std::vector<std::string> policies = {"always", "sync", "esync",
                                               "psync"};

    ExperimentRunner<SimResult> runner;
    for (const auto &name : specInt92Names())
        for (unsigned stages : {4u, 8u})
            for (const std::string &p : policies)
                runner.add(multiscalarCell(name, stages, p));
    const std::vector<SimResult> results = runner.runAll();

    TextTable t({"stages", "benchmark", "ALWAYS IPC", "SYNC", "ESYNC",
                 "PSYNC"});

    size_t idx = 0;
    for (const auto &name : specInt92Names()) {
        for (unsigned stages : {4u, 8u}) {
            const SimResult &always = results[idx++];
            const SimResult &syncr = results[idx++];
            const SimResult &esync = results[idx++];
            const SimResult &psync = results[idx++];

            t.beginRow();
            t.integer(stages);
            t.cell(name);
            t.num(always.ipc(), 2);
            t.cell(formatDouble(speedupPct(always, syncr), 1) + "%");
            t.cell(formatDouble(speedupPct(always, esync), 1) + "%");
            t.cell(formatDouble(speedupPct(always, psync), 1) + "%");

            std::string tag =
                name + " " + std::to_string(stages) + "st";
            sc.check(psync.ipc() >= esync.ipc() * 0.98,
                     tag + ": ESYNC below the ideal bound");
            sc.check(esync.ipc() >= syncr.ipc() * 0.97,
                     tag + ": SYNC never outperforms ESYNC");
            if (name == "espresso" || name == "xlisp") {
                sc.check(esync.ipc() >= psync.ipc() * 0.9,
                         tag + ": mechanism close to ideal");
                // The gap over blind speculation opens with the
                // window; demand a clear win at 8 stages only.
                if (stages == 8) {
                    sc.check(speedupPct(always, esync) > 5.0,
                             tag + ": mechanism clearly beats blind "
                                   "speculation");
                }
            }
            if (name == "compress" && stages == 8) {
                sc.check(syncr.ipc() < always.ipc(),
                         tag + ": counter-only SYNC degrades compress "
                               "(path-dependent dependences)");
                sc.check(esync.ipc() >= always.ipc() * 0.98,
                         tag + ": path-sensitive ESYNC recovers it");
            }
        }
    }
    t.print(std::cout);
    std::printf("\n");
    return t;
}
