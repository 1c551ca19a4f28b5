/**
 * @file
 * Table 3: unrealistic OoO model -- number of dynamic memory
 * dependence mis-speculations as a function of window size.
 */

#include <iostream>

#include "bench_common.hh"

using namespace mdp;

TextTable
table3WindowDeps(ShapeChecks &sc)
{
    const std::vector<uint32_t> sizes = {8, 16, 32, 64, 128, 256, 512};
    TextTable t;
    std::vector<std::string> head = {"WS"};
    for (const auto &n : specInt92Names())
        head.push_back(n);
    t.header(head);

    const std::vector<std::string> names = specInt92Names();
    ExperimentRunner<WindowStudyResult> runner;
    for (uint32_t ws : sizes)
        for (const auto &name : names)
            runner.add(windowCell(name, ws));
    const std::vector<WindowStudyResult> results = runner.runAll();

    // First/last rows for the shape check.
    std::vector<uint64_t> at8, at32, at512;

    size_t idx = 0;
    for (uint32_t ws : sizes) {
        t.beginRow();
        t.integer(ws);
        for (size_t w = 0; w < names.size(); ++w) {
            const WindowStudyResult &r = results[idx++];
            t.cell(formatCount(r.misSpeculations));
            if (ws == 8)
                at8.push_back(r.misSpeculations);
            if (ws == 32)
                at32.push_back(r.misSpeculations);
            if (ws == 512)
                at512.push_back(r.misSpeculations);
        }
    }
    t.print(std::cout);
    std::printf("\n");

    for (size_t i = 0; i < names.size(); ++i) {
        sc.check(at32[i] >= 2 * at8[i],
                 names[i] + ": dramatic increase from WS 8 to WS 32");
        sc.check(at512[i] >= at32[i],
                 names[i] + ": monotone growth to WS 512");
    }
    return t;
}
