/**
 * @file
 * Ablation A3: instance-tagging scheme (dependence distance vs data
 * address, section 3) and table organization (combined section 5.5 vs
 * split section 4).
 */

#include <iostream>

#include "bench_common.hh"

using namespace mdp;

int
main()
{
    banner("Ablation A3: tagging scheme and table organization "
           "(8 stages, SYNC)",
           "Moshovos et al., ISCA'97, sections 3, 4, 5.5");

    TextTable t({"benchmark", "ALWAYS IPC", "dist/combined",
                 "dist/split", "addr/combined", "addr/split"});
    ShapeChecks sc;

    for (const auto &name : specInt92Names()) {
        const WorkloadContext &ctx = cachedContext(name, benchScale());
        SimResult base = runMultiscalar(
            ctx, makeMultiscalarConfig(ctx, 8, "always"));

        t.beginRow();
        t.cell(name);
        t.num(base.ipc(), 2);

        double dist_combined = 0;
        for (TagScheme tags : {TagScheme::Distance, TagScheme::Address}) {
            for (SyncOrganization org : {SyncOrganization::Combined,
                                         SyncOrganization::Split}) {
                MultiscalarConfig cfg =
                    makeMultiscalarConfig(ctx, 8, "sync");
                cfg.sync.tags = tags;
                cfg.organization = org;
                SimResult r = runMultiscalar(ctx, cfg);
                double sp = speedupPct(base, r);
                t.cell(formatDouble(sp, 1) + "%");
                if (tags == TagScheme::Distance &&
                    org == SyncOrganization::Combined)
                    dist_combined = sp;
                sc.check(r.committedOps == ctx.trace().size(),
                         name + ": variant completes the trace");
            }
        }
        (void)dist_combined;
    }
    t.print(std::cout);
    std::printf("\n");
    return finishBench("ablation_tagging",
                       "Moshovos et al., ISCA'97, sections 3, 4, 5.5",
                       sc, t);
}
