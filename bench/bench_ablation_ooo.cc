/**
 * @file
 * Ablation A4: the mechanism in a superscalar continuous-window core
 * (section 6: "the techniques we proposed are applicable to processing
 * models other than Multiscalar").  Sweeps the window size and
 * compares speculation policies.
 */

#include <iostream>

#include "bench_common.hh"
#include "ooo/ooo_model.hh"

using namespace mdp;

TextTable
ablationOoo(ShapeChecks &sc)
{
    const std::vector<std::string> names = {"compress", "espresso",
                                            "xlisp"};
    const std::vector<unsigned> windows = {16, 32, 64, 128};

    ExperimentRunner<OooResult> runner;
    for (const auto &name : names)
        for (unsigned w : windows)
            for (const char *p : {"never", "always", "sync", "psync"})
                runner.add([name, w, p] {
                    OooConfig cfg;
                    cfg.windowSize = w;
                    cfg.policyName = p;
                    return runOoo(cachedContext(name, benchScale()), cfg);
                });
    const std::vector<OooResult> results = runner.runAll();

    TextTable t({"benchmark", "window", "NEVER", "ALWAYS", "SYNC",
                 "PSYNC", "always misspec/kop"});

    size_t idx = 0;
    for (const auto &name : names) {
        const size_t ops = cachedContext(name, benchScale()).trace().size();
        uint64_t prev_misspec = 0;
        for (unsigned w : windows) {
            const OooResult &never = results[idx++];
            const OooResult &always = results[idx++];
            const OooResult &sync = results[idx++];
            const OooResult &psync = results[idx++];

            t.beginRow();
            t.cell(name);
            t.integer(w);
            t.num(never.ipc(), 2);
            t.num(always.ipc(), 2);
            t.num(sync.ipc(), 2);
            t.num(psync.ipc(), 2);
            t.num(1000.0 * always.misSpeculations / ops, 2);

            std::string tag = name + " w" + std::to_string(w);
            if (w == 16) {
                sc.check(always.ipc() >= never.ipc() * 0.97,
                         tag + ": small windows: blind speculation is "
                               "harmless (the 1997 status quo)");
            }
            if (w == 128 && name != "espresso") {
                sc.check(always.ipc() < never.ipc(),
                         tag + ": large windows: blind speculation "
                               "now LOSES (the paper's motivation)");
            }
            sc.check(sync.ipc() >= always.ipc() * 0.97,
                     tag + ": the mechanism does not lose to blind "
                           "speculation");
            sc.check(psync.ipc() >= sync.ipc() * 0.98,
                     tag + ": ideal bounds the mechanism");
            sc.check(always.misSpeculations + 5 >= prev_misspec,
                     tag + ": mis-speculations grow with the window");
            prev_misspec = always.misSpeculations;
        }
    }
    t.print(std::cout);
    std::printf("\n");
    return t;
}
