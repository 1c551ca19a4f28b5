/**
 * @file
 * Ablation A3: instance-tagging scheme (dependence distance vs data
 * address, section 3) and table organization (combined section 5.5 vs
 * split section 4).
 */

#include <iostream>

#include "bench_common.hh"

using namespace mdp;

TextTable
ablationTagging(ShapeChecks &sc)
{
    // Per workload: the ALWAYS baseline, then SYNC under each of the
    // four (tag scheme, organization) variants.
    ExperimentRunner<SimResult> runner;
    for (const auto &name : specInt92Names()) {
        runner.add(multiscalarCell(name, 8, "always"));
        for (TagScheme tags : {TagScheme::Distance, TagScheme::Address})
            for (SyncOrganization org : {SyncOrganization::Combined,
                                         SyncOrganization::Split})
                runner.add(multiscalarCell(
                    name, 8, "sync", [tags, org](MultiscalarConfig &cfg) {
                        cfg.sync.tags = tags;
                        cfg.organization = org;
                    }));
    }
    const std::vector<SimResult> results = runner.runAll();

    TextTable t({"benchmark", "ALWAYS IPC", "dist/combined",
                 "dist/split", "addr/combined", "addr/split"});

    size_t idx = 0;
    for (const auto &name : specInt92Names()) {
        const SimResult &base = results[idx++];
        const size_t ops = cachedContext(name, benchScale()).trace().size();

        t.beginRow();
        t.cell(name);
        t.num(base.ipc(), 2);

        for (int v = 0; v < 4; ++v) {
            const SimResult &r = results[idx++];
            t.cell(formatDouble(speedupPct(base, r), 1) + "%");
            sc.check(r.committedOps == ops,
                     name + ": variant completes the trace");
        }
    }
    t.print(std::cout);
    std::printf("\n");
    return t;
}
