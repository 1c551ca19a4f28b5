/**
 * @file
 * Policy explorer: run any registered workload through the Multiscalar
 * timing model under every speculation policy and print the outcome.
 *
 *   ./build/examples/policy_explorer [workload] [stages] [scale]
 *   ./build/examples/policy_explorer --list
 *
 * e.g. ./build/examples/policy_explorer espresso 8 0.1
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "base/table.hh"
#include "harness/runner.hh"
#include "mdp/dep_policy.hh"
#include "workloads/suites.hh"

using namespace mdp;

int
main(int argc, char **argv)
{
    if (argc > 1 && std::string(argv[1]) == "--list") {
        for (const auto &n : allWorkloadNames()) {
            const Workload &w = findWorkload(n);
            std::printf("%-14s %-10s %s\n", n.c_str(),
                        w.profile().suite.c_str(),
                        w.profile().notes.c_str());
        }
        return 0;
    }

    std::string name = argc > 1 ? argv[1] : "espresso";
    unsigned stages = argc > 2 ? std::atoi(argv[2]) : 8;
    double scale = argc > 3 ? std::atof(argv[3]) : 0.1;

    std::printf("workload %s, %u stages, scale %.3g\n\n", name.c_str(),
                stages, scale);
    WorkloadContext ctx(name, scale);
    TraceStats st = ctx.trace().stats();
    std::printf("trace: %s ops, %s loads, %s tasks (avg %.1f ops)\n\n",
                formatCount(st.numOps).c_str(),
                formatCount(st.numLoads).c_str(),
                formatCount(st.numTasks).c_str(), st.avgTaskSize);

    TextTable t({"policy", "IPC", "cycles", "misspec", "msq/load",
                 "blocked", "frontier rel", "vs NEVER"});
    SimResult never;
    for (const std::string pol :
         {"never", "always", "wait", "sync", "esync", "psync"}) {
        SimResult r = runMultiscalar(
            ctx, makeMultiscalarConfig(ctx, stages, pol));
        if (pol == "never")
            never = r;
        t.beginRow();
        t.cell(policyDisplayName(pol));
        t.num(r.ipc(), 2);
        t.cell(formatCount(r.cycles));
        t.cell(formatCount(r.misSpeculations));
        t.num(r.misspecPerLoad(), 4);
        t.cell(formatCount(r.loadsBlockedSync + r.loadsBlockedFrontier));
        t.cell(formatCount(r.frontierReleases));
        t.cell(formatDouble(speedupPct(never, r), 1) + "%");
    }
    t.print(std::cout);
    return 0;
}
