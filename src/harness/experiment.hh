/**
 * @file
 * Parallel experiment execution.
 *
 * Every table/figure reproduction is a grid sweep: (workload x stages x
 * policy) cells, each an independent, deterministic simulation.  The
 * ExperimentRunner runs those cells on a thread pool and hands back the
 * results in submission order, so parallel output is bit-identical to
 * serial (MDP_JOBS=1).
 *
 * The expensive per-workload artifacts (trace, DepOracle, TaskSet) are
 * shared through a process-wide cache keyed by (name, scale): the first
 * cell that needs a context builds it exactly once, every later cell --
 * and every other grid in the same process -- reuses it by reference.
 */

#ifndef MDP_HARNESS_EXPERIMENT_HH
#define MDP_HARNESS_EXPERIMENT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "multiscalar/config.hh"

namespace mdp
{

/**
 * Shared, immutable WorkloadContext for (workload_name, scale), built
 * on first use and cached for the life of the process.  Thread-safe:
 * concurrent lookups of the same key block until the single builder
 * finishes; lookups of different keys build concurrently.  The
 * returned reference stays valid until clearWorkloadCache().
 */
const WorkloadContext &cachedContext(const std::string &workload_name,
                                     double scale);

/** Number of contexts currently cached (for tests and diagnostics). */
size_t workloadCacheSize();

/**
 * Drop every cached context.  Only safe when no cached references are
 * live (tests; long-lived tools reclaiming memory between phases).
 */
void clearWorkloadCache();

/** One cell of an experiment grid. */
struct ExperimentCell
{
    std::string workload; ///< registered workload name
    double scale = 1.0;   ///< trace scale (MDP_SCALE hook)
    MultiscalarConfig cfg;
};

/**
 * Collects simulation cells and runs them all, concurrently, against
 * cached workload contexts.
 *
 * Determinism: each cell is a pure function of its (workload, scale,
 * cfg) triple -- the config carries its own fixed seed -- and results
 * land in submission order, so runAll() yields the same vector for any
 * job count.  Typical use:
 *
 *   ExperimentRunner runner;
 *   size_t a = runner.add(name, scale, cfgAlways);
 *   size_t b = runner.add(name, scale, cfgSync);
 *   runner.runAll();
 *   ... runner.result(a), runner.result(b) ...
 */
class ExperimentRunner
{
  public:
    /** @param jobs worker count; 0 means ThreadPool::defaultJobs(). */
    explicit ExperimentRunner(unsigned jobs = 0);

    /** Queue one cell; returns its index into the results. */
    size_t add(const std::string &workload, double scale,
               const MultiscalarConfig &cfg);
    size_t add(ExperimentCell cell);

    size_t numCells() const { return cells.size(); }
    unsigned jobs() const { return njobs; }

    /**
     * Run every queued cell (no-op for cells already run) and return
     * all results in submission order.
     */
    const std::vector<SimResult> &runAll();

    /** Result of the cell @p add returned @p idx for (after runAll). */
    const SimResult &result(size_t idx) const;

  private:
    unsigned njobs;
    std::vector<ExperimentCell> cells;
    std::vector<SimResult> results;
    size_t completed = 0; ///< cells already run by a previous runAll()
};

/**
 * Convenience single-shot form: run a whole grid and return the
 * results in grid order.
 */
std::vector<SimResult> runGrid(const std::vector<ExperimentCell> &grid,
                               unsigned jobs = 0);

/**
 * Like makeMultiscalarConfig(ctx, ...) but without requiring the
 * context to exist yet: reads the control-prediction quality straight
 * from the registered workload profile, so grids can be described
 * before any trace has been generated.
 */
MultiscalarConfig makeWorkloadConfig(const std::string &workload_name,
                                     unsigned stages,
                                     const std::string &policy);

} // namespace mdp

#endif // MDP_HARNESS_EXPERIMENT_HH
