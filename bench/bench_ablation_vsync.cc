/**
 * @file
 * Ablation A6: the section-6 hybrid -- "a data speculation approach
 * that uses value prediction only when dependences are likely to
 * exist".  Sweeps the stores' value locality and compares the hybrid
 * (VSYNC) against synchronization (ESYNC) and the synchronization
 * ideal (PSYNC).  With high value locality the hybrid can beat even
 * ideal synchronization: a correctly predicted value removes the wait
 * entirely (the dataflow limit no longer applies).
 */

#include <array>
#include <iostream>

#include "bench_common.hh"

using namespace mdp;

TextTable
ablationVsync(ShapeChecks &sc)
{
    TextTable t({"value locality", "ALWAYS", "ESYNC", "VSYNC", "PSYNC",
                 "VP uses", "VP hits", "VP misses"});

    // One cell per value locality: each generates its own variant of
    // the profile, so it runs every policy on a private context.
    const std::vector<double> stabilities = {0.0, 0.5, 0.95};
    using Row = std::array<SimResult, 4>; // ALWAYS, ESYNC, VSYNC, PSYNC
    ExperimentRunner<Row> runner;
    for (double stability : stabilities) {
        runner.add([stability] {
            // An espresso-like loop whose recurrence stores repeat
            // their values with the given probability.
            WorkloadProfile p = findWorkload("espresso").profile();
            p.name = "espresso-vs" + std::to_string(stability);
            for (auto &r : p.recurrences)
                r.valueStability = stability;
            Workload w(std::move(p));
            // mdp-lint: allow(bench-discipline): custom per-row profile.
            WorkloadContext ctx(w.generate(benchScale()));
            Row row;
            const char *policies[] = {"always", "esync", "vsync", "psync"};
            for (size_t i = 0; i < row.size(); ++i)
                row[i] = runMultiscalar(
                    ctx, makeMultiscalarConfig(ctx, 8, policies[i]));
            return row;
        });
    }
    const std::vector<Row> rows = runner.runAll();

    double vsync_low = 0, vsync_high = 0, psync_high = 0, esync_high = 0;
    for (size_t i = 0; i < stabilities.size(); ++i) {
        const double stability = stabilities[i];
        const auto &[always, esync, vsync, psync] = rows[i];

        t.beginRow();
        t.num(stability, 2);
        t.num(always.ipc(), 2);
        t.num(esync.ipc(), 2);
        t.num(vsync.ipc(), 2);
        t.num(psync.ipc(), 2);
        t.cell(formatCount(vsync.valuePredUses));
        t.cell(formatCount(vsync.valuePredHits));
        t.cell(formatCount(vsync.valuePredMisses));

        if (stability == 0.0) {
            vsync_low = vsync.ipc();
            sc.check(vsync.valuePredHits == 0,
                     "locality 0: no value predictions succeed");
            sc.check(vsync.ipc() > esync.ipc() * 0.9,
                     "locality 0: hybrid degenerates to ESYNC "
                     "gracefully");
        }
        if (stability == 0.95) {
            vsync_high = vsync.ipc();
            psync_high = psync.ipc();
            esync_high = esync.ipc();
            sc.check(vsync.valuePredHits > 100,
                     "locality 0.95: predictions absorb violations");
        }
    }
    t.print(std::cout);
    std::printf("\n");

    sc.check(vsync_high > vsync_low,
             "the hybrid monetizes value locality");
    sc.check(vsync_high > esync_high,
             "locality 0.95: hybrid beats pure synchronization");
    sc.check(vsync_high > psync_high * 0.95,
             "locality 0.95: hybrid approaches (or exceeds) the "
             "synchronization ideal -- value prediction can beat the "
             "dataflow limit");
    return t;
}
