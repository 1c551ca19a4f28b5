/**
 * @file
 * Table 5: miss rate of Data Dependence Caches of 32/128/512 entries
 * as a function of the (unrealistic OoO) window size.
 */

#include <iostream>

#include "bench_common.hh"

using namespace mdp;

TextTable
table5DdcWindow(ShapeChecks &sc)
{
    const std::vector<uint32_t> windows = {8, 32, 128, 512};
    const std::vector<size_t> ddcs = {32, 128, 512};

    ExperimentRunner<WindowStudyResult> runner;
    for (const auto &name : specInt92Names())
        for (uint32_t ws : windows)
            runner.add(windowCell(name, ws, ddcs));
    const std::vector<WindowStudyResult> results = runner.runAll();

    TextTable t({"benchmark", "WS", "DDC32", "DDC128", "DDC512"});

    size_t idx = 0;
    for (const auto &name : specInt92Names()) {
        double worst_big_ddc = 0.0;
        for (uint32_t ws : windows) {
            const WindowStudyResult &r = results[idx++];
            t.beginRow();
            t.cell(name);
            t.integer(ws);
            for (auto &[sz, rate] : r.ddcMissRates) {
                t.cell(formatPercent(rate));
                if (sz == 512)
                    worst_big_ddc = std::max(worst_big_ddc, rate);
            }
            // Monotone in capacity at each window size.
            for (size_t i = 1; i < r.ddcMissRates.size(); ++i)
                sc.check(r.ddcMissRates[i].second <=
                             r.ddcMissRates[i - 1].second + 1e-12,
                         name + " WS " + std::to_string(ws) +
                             ": larger DDC never misses more");
        }
        sc.check(worst_big_ddc < 0.10,
                 name + ": a 512-entry DDC captures the dependences "
                        "(miss rate < 10%)");
    }
    t.print(std::cout);
    std::printf("\n");
    return t;
}
