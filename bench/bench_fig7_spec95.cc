/**
 * @file
 * Figure 7: the mechanism on the SPEC95 programs -- ESYNC and PSYNC
 * speedups over blind speculation on an 8-stage Multiscalar, with the
 * ESYNC IPC reported along the axis.
 */

#include <cmath>
#include <iostream>

#include "bench_common.hh"

using namespace mdp;

TextTable
fig7Spec95(ShapeChecks &sc)
{
    const std::vector<std::string> policies = {"always", "esync",
                                               "psync"};

    // Both suites go into one grid so the 18 workloads sweep together.
    std::vector<std::pair<std::string, std::string>> programs;
    for (const auto &name : specInt95Names())
        programs.emplace_back("SPECint95", name);
    for (const auto &name : specFp95Names())
        programs.emplace_back("SPECfp95", name);

    ExperimentRunner<SimResult> runner;
    for (const auto &[suite, name] : programs)
        for (const std::string &p : policies)
            runner.add(multiscalarCell(name, 8, p));
    const std::vector<SimResult> results = runner.runAll();

    TextTable t({"suite", "benchmark", "ESYNC IPC", "ESYNC", "PSYNC"});

    size_t idx = 0;
    for (const auto &[suite, name] : programs) {
        const SimResult &always = results[idx++];
        const SimResult &esync = results[idx++];
        const SimResult &psync = results[idx++];

        t.beginRow();
        t.cell(suite);
        t.cell(name);
        t.num(esync.ipc(), 2);
        t.cell(formatDouble(speedupPct(always, esync), 1) + "%");
        t.cell(formatDouble(speedupPct(always, psync), 1) + "%");

        double e = speedupPct(always, esync);
        double p = speedupPct(always, psync);
        sc.check(p >= e - 2.0, name + ": ideal bounds the mechanism");

        if (suite == "SPECint95") {
            sc.check(e > -3.0,
                     name + ": integer programs benefit (or at "
                            "least do not lose)");
        }
        if (name == "102.swim" || name == "104.hydro2d" ||
            name == "107.mgrid" || name == "125.turb3d") {
            sc.check(std::abs(p) < 8.0,
                     name + ": saturated elsewhere, little to gain "
                            "even ideally");
        }
        if (name == "101.tomcatv" || name == "110.applu") {
            sc.check(e >= p * 0.5 && e > 10.0,
                     name + ": mechanism close to ideal");
        }
        if (name == "145.fpppp" || name == "103.su2cor") {
            sc.check(e < p - 20.0,
                     name + ": dependence working set defeats the "
                            "64-entry table (mechanism falls far "
                            "short of ideal)");
        }
        if (name == "099.go") {
            sc.check(e < p,
                     name + ": poor control prediction limits the "
                            "mechanism");
        }
    }

    t.print(std::cout);
    std::printf("\n");
    return t;
}
