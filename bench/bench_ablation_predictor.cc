/**
 * @file
 * Ablation A2: predictor-policy knobs -- counter width, allocation
 * count, frontier-release penalty and mis-speculation update rule
 * (section 4.4.1 discusses the design space of the prediction field).
 */

#include <iostream>

#include "bench_common.hh"

using namespace mdp;

TextTable
ablationPredictor(ShapeChecks &sc)
{
    const std::vector<std::string> names = {"compress", "espresso",
                                            "sc"};

    struct Variant
    {
        const char *label;
        unsigned bits;
        unsigned threshold;
        unsigned init;
        unsigned penalty;
        bool saturate;
    };
    const std::vector<Variant> variants = {
        {"paper (3b, thr 3, init 2, pen 2)", 3, 3, 2, 2, false},
        {"arm-immediately (init 3)", 3, 3, 3, 2, false},
        {"gentle penalty (pen 1)", 3, 3, 2, 1, false},
        {"harsh penalty (pen 4)", 3, 3, 2, 4, false},
        {"saturate on misspec", 3, 3, 2, 2, true},
        {"1-bit counter", 1, 1, 1, 1, false},
        {"2-bit counter (thr 2)", 2, 2, 1, 1, false},
    };

    // The ALWAYS baselines first, then one ESYNC cell per (variant,
    // workload).
    ExperimentRunner<SimResult> runner;
    for (const auto &n : names)
        runner.add(multiscalarCell(n, 8, "always"));
    for (const Variant &v : variants) {
        auto knobs = [v](MultiscalarConfig &cfg) {
            cfg.sync.counterBits = v.bits;
            cfg.sync.threshold = v.threshold;
            cfg.sync.initialCount = v.init;
            cfg.sync.frontierReleasePenalty = v.penalty;
            cfg.sync.saturateOnMisspec = v.saturate;
        };
        for (const auto &n : names)
            runner.add(multiscalarCell(n, 8, "esync", knobs));
    }
    const std::vector<SimResult> results = runner.runAll();

    TextTable t;
    std::vector<std::string> head = {"variant"};
    for (const auto &n : names)
        head.push_back(n + " (ESYNC)");
    t.header(head);

    double default_compress = 0;
    size_t idx = names.size();
    for (const auto &v : variants) {
        t.beginRow();
        t.cell(v.label);
        for (size_t i = 0; i < names.size(); ++i) {
            double sp = speedupPct(results[i], results[idx++]);
            t.cell(formatDouble(sp, 1) + "%");
            if (&v == &variants[0] && names[i] == "compress")
                default_compress = sp;
        }
    }
    t.print(std::cout);
    std::printf("\n");

    sc.check(default_compress > -5.0,
             "default predictor does not lose on compress");
    return t;
}
