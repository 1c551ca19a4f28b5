#include "serve/lockstep.hh"

#include "harness/cycle_stats.hh"
#include "harness/phase_timer.hh"

namespace mdp
{

LockstepEvaluator::LockstepEvaluator(const WorkloadContext &context,
                                     std::vector<LockstepJob> jobs)
    : ctx(context), jobSpecs(std::move(jobs))
{
}

void
LockstepEvaluator::run(const LaneDone &done)
{
    for (size_t i = 0; i < jobSpecs.size(); ++i)
        done(i, runLane(jobSpecs[i]));
}

LockstepResult
LockstepEvaluator::runLane(const LockstepJob &job)
{
    ScopedPhase phase("simulate");
    LockstepResult r;
    if (job.model == LockstepJob::Model::Multiscalar) {
        MultiscalarProcessor proc(ctx.trace(), ctx.oracle(), ctx.tasks(),
                                  job.ms, &lanePool);
        r.ms = proc.run();
        addCycleStats(r.ms.cyclesSimulated, r.ms.cyclesSkipped);
    } else {
        OooProcessor proc(ctx.trace(), ctx.oracle(), job.ooo, &lanePool);
        r.ooo = proc.run();
        addCycleStats(r.ooo.cyclesSimulated, r.ooo.cyclesSkipped);
    }
    return r;
}

} // namespace mdp
