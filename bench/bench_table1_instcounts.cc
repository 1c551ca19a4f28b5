/**
 * @file
 * Table 1: dynamic, committed instruction counts per benchmark.
 */

#include <iostream>

#include "bench_common.hh"

using namespace mdp;

TextTable
table1Instcounts(ShapeChecks &sc)
{
    // One cell per workload: building its context is the work.
    const std::vector<std::string> names = allWorkloadNames();
    ExperimentRunner<TraceStats> runner;
    for (const auto &name : names)
        runner.add([name] {
            return cachedContext(name, benchScale()).trace().stats();
        });
    const std::vector<TraceStats> stats = runner.runAll();

    TextTable t({"suite", "benchmark", "ops", "loads", "stores",
                 "tasks", "avg task"});
    for (size_t i = 0; i < names.size(); ++i) {
        const std::string &name = names[i];
        const TraceStats &st = stats[i];
        t.beginRow();
        t.cell(findWorkload(name).profile().suite);
        t.cell(name);
        t.cell(formatCount(st.numOps));
        t.cell(formatCount(st.numLoads));
        t.cell(formatCount(st.numStores));
        t.cell(formatCount(st.numTasks));
        t.num(st.avgTaskSize, 1);
    }
    t.print(std::cout);

    // The paper's fpppp/su2cor run ~1000-instruction tasks; the rest
    // are tens of instructions.
    const TraceView &fp = cachedContext("145.fpppp", benchScale()).trace();
    const TraceView &ix = cachedContext("xlisp", benchScale()).trace();
    sc.check(fp.stats().avgTaskSize > 500,
             "fpppp tasks are huge (greedy task partitioning)");
    sc.check(ix.stats().avgTaskSize < 100, "xlisp tasks are small");
    return t;
}
