/**
 * @file
 * Ablation A5: the distributed MDPT/MDST organization (section 4.4.5)
 * -- identical per-stage copies with mis-speculation and store
 * broadcasts -- versus the centralized structure it replaces.
 */

#include <iostream>

#include "bench_common.hh"

using namespace mdp;

TextTable
ablationDistributed(ShapeChecks &sc)
{
    TextTable t({"benchmark", "central IPC", "central misspec",
                 "distributed IPC", "distributed misspec"});

    ExperimentRunner<SimResult> runner;
    for (const auto &name : specInt92Names()) {
        runner.add(multiscalarCell(name, 8, "esync"));
        runner.add(multiscalarCell(name, 8, "esync",
                                   [](MultiscalarConfig &cfg) {
                                       cfg.organization =
                                           SyncOrganization::Distributed;
                                   }));
    }
    const std::vector<SimResult> results = runner.runAll();

    size_t idx = 0;
    for (const auto &name : specInt92Names()) {
        const SimResult &central = results[idx++];
        const SimResult &dist = results[idx++];

        t.beginRow();
        t.cell(name);
        t.num(central.ipc(), 2);
        t.cell(formatCount(central.misSpeculations));
        t.num(dist.ipc(), 2);
        t.cell(formatCount(dist.misSpeculations));

        sc.check(dist.committedOps ==
                     cachedContext(name, benchScale()).trace().size(),
                 name + ": distributed organization completes");
        sc.check(dist.ipc() > central.ipc() * 0.85,
                 name + ": distribution costs at most a modest slowdown"
                        " (loads use only the local copy)");
    }
    t.print(std::cout);
    std::printf(
        "\nDistribution removes the central structure's port pressure:\n"
        "loads are served entirely by the local copy; only detected\n"
        "mis-speculations and matching stores broadcast.  Prediction\n"
        "updates are NOT broadcast here (a deliberate relaxation of\n"
        "section 4.4.5), so copies may diverge slightly -- visible as\n"
        "extra residual mis-speculations above.\n\n");
    return t;
}
