/**
 * @file
 * Superscalar window study: reproduce the paper's core argument in a
 * conventional (non-Multiscalar) out-of-order core -- blind load
 * speculation is harmless in a 16-entry window and harmful in a
 * 128-entry one, and dependence prediction recovers the loss.
 *
 *   ./build/examples/superscalar_window [workload] [scale]
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "base/table.hh"
#include "ooo/ooo_model.hh"
#include "trace/dep_oracle.hh"
#include "workloads/suites.hh"

using namespace mdp;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "xlisp";
    double scale = argc > 2 ? std::atof(argv[2]) : 0.1;

    Trace trace = findWorkload(name).generate(scale);
    DepOracle oracle(trace);
    std::printf("workload %s: %zu ops\n\n", name.c_str(), trace.size());

    TextTable t({"window", "NEVER", "ALWAYS", "SYNC", "PSYNC",
                 "misspec (ALWAYS)"});
    for (unsigned w : {16u, 32u, 64u, 128u, 256u}) {
        auto run = [&](const std::string &pol) {
            OooConfig cfg;
            cfg.windowSize = w;
            cfg.policyName = pol;
            OooProcessor proc(trace, oracle, cfg);
            return proc.run();
        };
        OooResult never = run("never");
        OooResult always = run("always");
        OooResult sync = run("sync");
        OooResult psync = run("psync");
        t.beginRow();
        t.integer(w);
        t.num(never.ipc(), 2);
        t.num(always.ipc(), 2);
        t.num(sync.ipc(), 2);
        t.num(psync.ipc(), 2);
        t.cell(formatCount(always.misSpeculations));
    }
    t.print(std::cout);
    std::printf("\nNote how ALWAYS pulls ahead of NEVER at small\n"
                "windows but falls behind at large ones, while the\n"
                "prediction/synchronization mechanism tracks PSYNC.\n");
    return 0;
}
