/**
 * @file
 * Table 6: number of mis-speculations observed on 4- and 8-stage
 * Multiscalar processors under blind speculation.
 */

#include <iostream>

#include "bench_common.hh"

using namespace mdp;

TextTable
table6MsMisspec(ShapeChecks &sc)
{
    TextTable t;
    std::vector<std::string> head = {"stages"};
    for (const auto &n : specInt92Names())
        head.push_back(n);
    t.header(head);

    ExperimentRunner<SimResult> runner;
    for (unsigned stages : {4u, 8u})
        for (const auto &name : specInt92Names())
            runner.add(multiscalarCell(name, stages, "always"));
    const std::vector<SimResult> results = runner.runAll();

    std::vector<uint64_t> at4, at8;
    size_t idx = 0;
    for (unsigned stages : {4u, 8u}) {
        t.beginRow();
        t.integer(stages);
        for (size_t w = 0; w < specInt92Names().size(); ++w) {
            const SimResult &r = results[idx++];
            t.cell(formatCount(r.misSpeculations));
            (stages == 4 ? at4 : at8).push_back(r.misSpeculations);
        }
    }
    t.print(std::cout);
    std::printf("\n");

    auto names = specInt92Names();
    for (size_t i = 0; i < names.size(); ++i) {
        sc.check(at8[i] > at4[i],
                 names[i] +
                     ": mis-speculations more frequent at 8 stages");
        sc.check(at4[i] > 0, names[i] + ": violations occur at all");
    }
    return t;
}
