/**
 * @file
 * Experiment-harness conveniences shared by the benches, examples and
 * integration tests: building the per-workload artifacts once (trace,
 * oracle, task set) and running the Multiscalar model under a policy.
 */

#ifndef MDP_HARNESS_RUNNER_HH
#define MDP_HARNESS_RUNNER_HH

#include <memory>
#include <string>

#include "multiscalar/config.hh"
#include "multiscalar/task_info.hh"
#include "ooo/ooo_model.hh"
#include "trace/cache.hh"
#include "trace/dep_oracle.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace mdp
{

/**
 * The expensive shared artifacts of one workload at one scale:
 * trace, dependence oracle, task partitioning.  Build once, run many
 * configurations against it.
 *
 * When MDP_TRACE_CACHE names a directory, the generating constructor
 * first consults the persistent trace cache: on a hit the trace is
 * mmap'd zero-copy (no generation, no deserialization); on a miss it
 * is generated as before and the entry is published for the next
 * process.  Cache problems of any kind silently fall back to
 * generation -- results are byte-identical with the cache cold, warm,
 * or disabled.
 */
class WorkloadContext
{
  public:
    /** Generate from a registered workload name (fatal if unknown). */
    WorkloadContext(const std::string &workload_name, double scale);

    /**
     * Wrap an externally produced trace, optionally carrying the
     * control-prediction quality of the profile that generated it.
     */
    explicit WorkloadContext(Trace trace,
                             double task_mispredict_rate = 0.0);

    const TraceView &trace() const { return view; }
    const DepOracle &oracle() const { return *orc; }
    const TaskSet &tasks() const { return *tset; }
    const std::string &name() const { return wname; }

    /** @return true when the trace came from the persistent cache. */
    bool fromTraceCache() const { return mapped != nullptr; }

    /** The task-misprediction rate of the source profile (0 for
     *  external traces). */
    double taskMispredictRate() const { return mispredict; }

  private:
    std::string wname;
    double mispredict = 0.0;
    Trace trc;                           ///< owned (generated) trace
    std::unique_ptr<MappedTrace> mapped; ///< cache-backed trace
    TraceView view;                      ///< whichever backing is live
    std::unique_ptr<DepOracle> orc;
    std::unique_ptr<TaskSet> tset;
};

/**
 * Default Multiscalar configuration for a stage count and policy,
 * carrying the workload's control-prediction quality.
 */
MultiscalarConfig makeMultiscalarConfig(const WorkloadContext &ctx,
                                        unsigned stages,
                                        const std::string &policy);

/**
 * Run the Multiscalar model once.  Accounts the run's wall time under
 * the "simulate" phase and its fast-forward counters, and whether it
 * hit the cycle cap, in the process cycle-stats totals
 * (harness/cycle_stats.hh).
 */
SimResult runMultiscalar(const WorkloadContext &ctx,
                         const MultiscalarConfig &cfg);

/** Run the superscalar OoO model once; same accounting as
 *  runMultiscalar. */
OooResult runOoo(const WorkloadContext &ctx, const OooConfig &cfg);

/** Percentage speedup of @p test over @p base (by IPC). */
double speedupPct(const SimResult &base, const SimResult &test);

/**
 * Profile-guided "compiler analysis" (section 6): scan the trace for
 * recurring inter-task dependences and return the static edges that
 * occur at least @p min_count times, with their modal distance and
 * producing-task PC.  Feed the result to
 * MultiscalarConfig::preloadEdges to model ISA-exposed dependences.
 */
std::vector<StaticEdge> analyzeStaticEdges(const WorkloadContext &ctx,
                                           uint64_t min_count = 16);

} // namespace mdp

#endif // MDP_HARNESS_RUNNER_HH
