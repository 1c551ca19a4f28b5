/**
 * @file
 * Figure 5: comparison of the NEVER / ALWAYS / WAIT / PSYNC data
 * dependence speculation policies on 4- and 8-stage Multiscalar
 * processors (speedups relative to NEVER; IPC of NEVER on the axis).
 */

#include <iostream>

#include "bench_common.hh"

using namespace mdp;

namespace
{

/** "+12.3%": the speedup of @p r over @p base, one decimal. */
std::string
gainCell(const SimResult &base, const SimResult &r)
{
    std::string s = "+";
    s += formatDouble(speedupPct(base, r), 1);
    s += '%';
    return s;
}

} // namespace

TextTable
fig5Policies(ShapeChecks &sc)
{
    const std::vector<std::string> policies = {"never", "always", "wait",
                                               "psync"};

    // Queue the whole (workload x stages x policy) grid, then sweep it
    // in parallel; rows are printed afterwards in submission order so
    // the table is byte-identical for any MDP_JOBS.
    ExperimentRunner<SimResult> runner;
    for (const auto &name : specInt92Names())
        for (unsigned stages : {4u, 8u})
            for (const std::string &p : policies)
                runner.add(multiscalarCell(name, stages, p));
    const std::vector<SimResult> results = runner.runAll();

    TextTable t({"stages", "benchmark", "NEVER IPC", "ALWAYS", "WAIT",
                 "PSYNC"});

    size_t idx = 0;
    for (const auto &name : specInt92Names()) {
        double gap4 = 0, gap8 = 0;
        for (unsigned stages : {4u, 8u}) {
            const SimResult &never = results[idx++];
            const SimResult &always = results[idx++];
            const SimResult &wait = results[idx++];
            const SimResult &psync = results[idx++];

            t.beginRow();
            t.integer(stages);
            t.cell(name);
            t.num(never.ipc(), 2);
            t.cell(gainCell(never, always));
            t.cell(gainCell(never, wait));
            t.cell(gainCell(never, psync));

            sc.check(always.ipc() > never.ipc(),
                     name + " " + std::to_string(stages) +
                         "st: blind speculation beats no speculation");
            sc.check(psync.ipc() >= always.ipc(),
                     name + " " + std::to_string(stages) +
                         "st: ideal sync bounds blind speculation");
            double gap = psync.ipc() / always.ipc();
            (stages == 4 ? gap4 : gap8) = gap;

            if ((name == "compress" || name == "sc") && stages == 8) {
                sc.check(wait.ipc() < always.ipc(),
                         name + " 8st: selective speculation (WAIT) "
                                "underperforms blind speculation");
            }
        }
        sc.check(gap8 >= gap4 * 0.95,
                 name + ": PSYNC-over-ALWAYS gap grows (or holds) with "
                        "window size");
    }
    t.print(std::cout);
    std::printf("\n");
    return t;
}
