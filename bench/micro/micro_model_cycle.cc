/**
 * @file
 * End-to-end cycle-step kernels: one full simulation of a small cached
 * workload under each model/policy pair.  These cover the per-cycle
 * issue/wakeup/commit loops (the dominant cost of every bench), so a
 * regression here is a regression everywhere.
 *
 * MDP_MICRO_SCALE sets the workload scale (default 0.05 -- small
 * enough that a kernel is tens of milliseconds, large enough that the
 * window fills and the blocked-list scans matter).
 */

#include <string>

#include "micro_common.hh"
#include "ooo/ooo_model.hh"

using namespace mdp;

namespace
{

uint64_t
oooKernel(const WorkloadContext &ctx, const std::string &policy)
{
    OooConfig cfg;
    cfg.policyName = policy;
    const OooResult r = runOoo(ctx, cfg);
    uint64_t sum = mixChecksum(r.cycles, r.committedOps);
    sum = mixChecksum(sum, r.misSpeculations);
    sum = mixChecksum(sum, r.loadsBlocked);
    return mixChecksum(sum, r.frontierReleases);
}

uint64_t
msKernel(const WorkloadContext &ctx, const std::string &policy)
{
    const MultiscalarConfig cfg = makeMultiscalarConfig(ctx, 8, policy);
    const SimResult r = runMultiscalar(ctx, cfg);
    uint64_t sum = mixChecksum(r.cycles, r.committedOps);
    sum = mixChecksum(sum, r.misSpeculations);
    sum = mixChecksum(sum, r.loadsBlockedSync);
    return mixChecksum(sum, r.syncWaitCycles);
}

} // namespace

int
main()
{
    MicroSuite suite("micro_model_cycle",
                     "timing-model cycle loops "
                     "(Moshovos et al., ISCA'97, sections 5-6)");

    const double scale = envDouble("MDP_MICRO_SCALE", 0.05);
    const WorkloadContext &ctx = cachedContext("compress", scale);

    suite.kernel("ooo_cycle_always",
                 [&] { return oooKernel(ctx, "always"); });
    suite.kernel("ooo_cycle_sync",
                 [&] { return oooKernel(ctx, "sync"); });
    suite.kernel("ms_cycle_always",
                 [&] { return msKernel(ctx, "always"); });
    suite.kernel("ms_cycle_sync",
                 [&] { return msKernel(ctx, "sync"); });

    return suite.finish();
}
