/**
 * @file
 * Multi-config evaluation: drive N timing-model instances over one
 * shared workload context in a single logical trace pass.
 *
 * A policy sweep (fig5/fig7/table9 shape) evaluates many
 * configurations against the *same* dynamic instruction stream.  The
 * evaluator runs the lanes back to back over one shared context: the
 * (mmap'd) trace, oracle and task set are built once per group, every
 * lane reads them, and each lane reports through a completion
 * callback as soon as it finishes, so a caller can answer each
 * configuration without waiting for the rest.
 *
 * Each lane's processor is built from the evaluator's LanePool, run
 * to completion, finished and destroyed before the next lane starts,
 * so one evaluator keeps at most one processor alive.  The lanes are
 * fully independent machines, so the results are exactly those of
 * running each config alone (asserted in tests/test_serve.cc).
 */

#ifndef MDP_SERVE_LOCKSTEP_HH
#define MDP_SERVE_LOCKSTEP_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "base/soa_lanes.hh"
#include "harness/runner.hh"
#include "multiscalar/config.hh"
#include "multiscalar/processor.hh"
#include "ooo/ooo_model.hh"

namespace mdp
{

/** One lane of an evaluation: exactly one model is chosen. */
struct LockstepJob
{
    enum class Model { Multiscalar, Ooo };
    Model model = Model::Multiscalar;
    MultiscalarConfig ms;
    OooConfig ooo;
};

/** The lane's result; only the chosen model's member is meaningful. */
struct LockstepResult
{
    SimResult ms;
    OooResult ooo;
};

/**
 * Runs a batch of jobs against one context, one lane after another.
 * Single-shot: construct, run().  Accounts every lane's wall time
 * under the "simulate" phase and its fast-forward counters in the
 * process cycle-stats totals, like runMultiscalar()/runOoo() do for
 * standalone runs.
 */
class LockstepEvaluator
{
  public:
    /** Called once per lane, in job order, as soon as it finishes. */
    using LaneDone =
        std::function<void(size_t lane, const LockstepResult &result)>;

    LockstepEvaluator(const WorkloadContext &ctx,
                      std::vector<LockstepJob> jobs);

    LockstepEvaluator(const LockstepEvaluator &) = delete;
    LockstepEvaluator &operator=(const LockstepEvaluator &) = delete;

    /** Run every lane to completion, reporting each to @p done. */
    void run(const LaneDone &done);

  private:
    /** The simulation path: build, run, finish and destroy one lane. */
    LockstepResult runLane(const LockstepJob &job);

    const WorkloadContext &ctx;
    std::vector<LockstepJob> jobSpecs;

    /**
     * Recycling arena for the lanes' op-state buffers: each lane's
     * processor releases into it at destruction and the next lane
     * borrows them back.  The evaluator runs on one thread (shard
     * parallelism lives above it in the server), which is all
     * LanePool supports.
     */
    LanePool lanePool;
};

} // namespace mdp

#endif // MDP_SERVE_LOCKSTEP_HH
