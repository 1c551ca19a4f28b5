/**
 * @file
 * Custom workload: define your own dependence phenomenology with a
 * WorkloadProfile, then study it with both the perfect-window model
 * and the Multiscalar timing model.
 *
 *   ./build/examples/custom_workload
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "base/table.hh"
#include "harness/runner.hh"
#include "mdp/dep_policy.hh"
#include "window/window_model.hh"
#include "workloads/workload.hh"

using namespace mdp;

int
main()
{
    // A producer/consumer loop: every iteration reads a flag the
    // previous iteration wrote (a classic synchronization variable),
    // plus a rarely-active pointer-mediated update.
    WorkloadProfile p;
    p.name = "custom-producer-consumer";
    p.suite = "examples";
    p.seed = 4242;
    p.baseIterations = 20000;
    p.minTaskSize = 30;
    p.maxTaskSize = 50;

    RecurrenceSpec flag;                // the hot synchronization flag
    flag.count = 1;
    flag.distance = 1;
    flag.activeProb = 1.0;
    flag.sameAddress = true;
    flag.storePosition = 0.7;           // written near the task's end
    flag.loadPosition = 0.15;           // read right away by the next
    flag.positionJitter = 0.15;
    p.recurrences.push_back(flag);

    RecurrenceSpec rare;                // a cold, occasional update
    rare.count = 4;
    rare.distance = 2;
    rare.activeProb = 0.2;
    rare.sameAddress = false;
    p.recurrences.push_back(rare);

    Workload w(std::move(p));
    Trace trace = w.generate(0.2);
    std::printf("generated %zu ops in %u tasks (valid: %s)\n\n",
                trace.size(), trace.numTasks(),
                trace.validate().empty() ? "yes" : "NO");

    // 1. How many dependences does a perfect window of size n see?
    DepOracle oracle(trace);
    WindowModel wm(trace, oracle);
    TextTable wt({"window", "misspecs", "static deps", "deps for 99.9%"});
    for (uint32_t ws : {8u, 32u, 128u, 512u}) {
        auto r = wm.study(ws, {});
        wt.beginRow();
        wt.integer(ws);
        wt.cell(formatCount(r.misSpeculations));
        wt.integer(r.staticDeps);
        wt.integer(r.staticDepsFor999);
    }
    std::printf("perfect-window dependence profile:\n");
    wt.print(std::cout);

    // 2. What does dependence prediction buy on this workload?
    WorkloadContext ctx(std::move(trace));
    TextTable mt({"policy", "IPC", "misspec"});
    SimResult always;
    for (const std::string pol : {"always", "esync", "psync"}) {
        SimResult r =
            runMultiscalar(ctx, makeMultiscalarConfig(ctx, 8, pol));
        if (pol == "always")
            always = r;
        mt.beginRow();
        mt.cell(policyDisplayName(pol));
        mt.num(r.ipc(), 2);
        mt.cell(formatCount(r.misSpeculations));
    }
    std::printf("\n8-stage Multiscalar:\n");
    mt.print(std::cout);

    SimResult esync =
        runMultiscalar(ctx, makeMultiscalarConfig(ctx, 8, "esync"));
    std::printf("\nprediction+synchronization speedup over blind "
                "speculation: %.1f%%\n",
                speedupPct(always, esync));
    return 0;
}
