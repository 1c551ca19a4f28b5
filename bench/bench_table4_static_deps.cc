/**
 * @file
 * Table 4: number of static dependences responsible for 99.9% of all
 * mis-speculations, as a function of window size.
 */

#include <iostream>

#include "bench_common.hh"

using namespace mdp;

TextTable
table4StaticDeps(ShapeChecks &sc)
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

    std::vector<uint64_t> at8, at512, total512;
    size_t idx = 0;
    for (uint32_t ws : sizes) {
        t.beginRow();
        t.integer(ws);
        for (size_t w = 0; w < names.size(); ++w) {
            const WindowStudyResult &r = results[idx++];
            t.integer(r.staticDepsFor999);
            if (ws == 8)
                at8.push_back(r.staticDepsFor999);
            if (ws == 512) {
                at512.push_back(r.staticDepsFor999);
                total512.push_back(r.staticDeps);
            }
        }
    }
    t.print(std::cout);
    std::printf("\n");

    for (size_t i = 0; i < names.size(); ++i) {
        sc.check(at512[i] >= at8[i],
                 names[i] + ": more static deps exposed at larger windows");
        sc.check(at512[i] <= total512[i],
                 names[i] + ": coverage set within total");
    }
    // gcc's irregular dependence set is the largest of the suite.
    size_t gcc_idx = 2;   // compress espresso gcc sc xlisp
    bool gcc_largest = true;
    for (size_t i = 0; i < at512.size(); ++i)
        if (i != gcc_idx && at512[i] > at512[gcc_idx])
            gcc_largest = false;
    sc.check(gcc_largest, "gcc has the largest dependence working set");
    return t;
}
