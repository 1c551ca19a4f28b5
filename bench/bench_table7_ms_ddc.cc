/**
 * @file
 * Table 7: DDC miss rates on the 8-stage Multiscalar mis-speculation
 * stream, as a function of DDC size.
 */

#include <iostream>

#include "bench_common.hh"
#include "mdp/ddc.hh"

using namespace mdp;

TextTable
table7MsDdc(ShapeChecks &sc)
{
    const std::vector<size_t> sizes = {16, 32, 64, 128, 256, 512, 1024};
    TextTable t;
    std::vector<std::string> head = {"CS"};
    for (const auto &n : specInt92Names())
        head.push_back(n);
    t.header(head);

    // Collect the mis-speculation streams, one parallel cell per
    // workload; the DDC replays below are cheap and stay serial.
    ExperimentRunner<SimResult> runner;
    for (const auto &name : specInt92Names())
        runner.add(multiscalarCell(name, 8, "always",
                                   [](MultiscalarConfig &cfg) {
                                       cfg.logMisSpeculations = true;
                                   }));
    const std::vector<SimResult> results = runner.runAll();

    std::vector<double> at64, at1024;
    for (size_t cs : sizes) {
        t.beginRow();
        t.integer(cs);
        for (size_t w = 0; w < specInt92Names().size(); ++w) {
            const auto &stream = results[w].misspecLog;
            DepDependenceCache ddc(cs);
            for (const auto &[l, s] : stream)
                ddc.access(l, s);
            t.cell(formatPercent(ddc.missRate()));
            if (cs == 64)
                at64.push_back(ddc.missRate());
            if (cs == 1024)
                at1024.push_back(ddc.missRate());
        }
    }
    t.print(std::cout);
    std::printf("\n");

    auto names = specInt92Names();
    for (size_t i = 0; i < names.size(); ++i) {
        sc.check(at64[i] < 0.10,
                 names[i] + ": 64-entry DDC miss rate below 10%");
    }
    // A 1024-entry DDC captures everything except the gcc-like
    // irregular working set.
    for (size_t i = 0; i < names.size(); ++i) {
        if (names[i] == "gcc")
            continue;
        sc.check(at1024[i] <= at64[i],
                 names[i] + ": 1024 entries at least as good as 64");
    }
    return t;
}
