/**
 * @file
 * Microbenchmark of the multi-config evaluator against the sequential
 * sweep it replaces: the same fig5-shaped batch (stages {4,8} x
 * policies {never,always,wait,psync}) run once as eight back-to-back
 * runMultiscalar() calls and once through LockstepEvaluator, with a
 * completion sink folding each lane as it finishes (the way the
 * server streams results).  The phase timings land in the JSON
 * artifact as micro_sweep_* so bench_gate.py micro gates both
 * paths, and the wall-time gap between them is what the shared
 * context and lane pool save.
 *
 * Both kernels must produce the same checksum -- the evaluator is
 * byte-identical to sequential runs by contract -- so a divergence
 * fails the binary, not just the unit suite.
 */

#include "micro_common.hh"

#include "serve/lockstep.hh"

using namespace mdp;

namespace
{

std::vector<LockstepJob>
fig5Jobs(const WorkloadContext &ctx)
{
    const std::string policies[] = {"never", "always", "wait",
                                    "psync"};
    std::vector<LockstepJob> jobs;
    for (unsigned stages : {4u, 8u}) {
        for (const std::string &p : policies) {
            LockstepJob job;
            job.ms = makeMultiscalarConfig(ctx, stages, p);
            jobs.push_back(job);
        }
    }
    return jobs;
}

uint64_t
foldResult(uint64_t sum, const SimResult &r)
{
    sum = mixChecksum(sum, r.cycles);
    sum = mixChecksum(sum, r.committedOps);
    sum = mixChecksum(sum, r.misSpeculations);
    sum = mixChecksum(sum, r.squashedOps);
    return mixChecksum(sum, r.syncWaitCycles);
}

uint64_t
sweepSequential(const WorkloadContext &ctx,
                const std::vector<LockstepJob> &jobs)
{
    uint64_t sum = 0;
    for (const LockstepJob &job : jobs)
        sum = foldResult(sum, runMultiscalar(ctx, job.ms));
    return sum;
}

uint64_t
sweepLockstep(const WorkloadContext &ctx,
              const std::vector<LockstepJob> &jobs)
{
    LockstepEvaluator eval(ctx, jobs);
    uint64_t sum = 0;
    eval.run([&sum](size_t, const LockstepResult &r) {
        sum = foldResult(sum, r.ms);
    });
    return sum;
}

} // namespace

int
main()
{
    MicroSuite suite("micro_lockstep",
                     "multi-config evaluation over one shared context "
                     "vs. the sequential sweep it amortizes");

    const double scale = envDouble("MDP_MICRO_SCALE", 0.05);
    const WorkloadContext &ctx = cachedContext("espresso", scale);
    const std::vector<LockstepJob> jobs = fig5Jobs(ctx);

    uint64_t seq = 0, lock = 0;
    suite.kernel("sweep_sequential",
                 [&] { return seq = sweepSequential(ctx, jobs); });
    suite.kernel("sweep_lockstep",
                 [&] { return lock = sweepLockstep(ctx, jobs); });

    int rc = suite.finish();
    if (seq != lock) {
        std::fprintf(stderr,
                     "micro_lockstep: evaluator checksum diverges from "
                     "the sequential sweep (seq=%016llx lock=%016llx)\n",
                     static_cast<unsigned long long>(seq),
                     static_cast<unsigned long long>(lock));
        return 1;
    }
    return rc;
}
