/**
 * @file
 * The one sweep engine.
 *
 * Every table/figure reproduction is a grid of independent,
 * deterministic cells (workload x stages x mechanism, plus the
 * section-6 variants), and so is every mdp_served batch.  A cell is a
 * closure returning its result -- a SimResult, an OooResult, a window
 * study, a served "done" line -- and the ExperimentRunner runs the
 * cells on a thread pool and hands the results back in submission
 * order, so parallel output is bit-identical to serial (MDP_JOBS=1).
 *
 * The expensive per-workload artifacts (trace, DepOracle, TaskSet) are
 * shared through a process-wide cache keyed by (name, scale): the first
 * cell that needs a context builds it exactly once, every later cell
 * reuses it by reference.  Cells over traces the cache cannot key
 * (custom profiles, manycore traces) use a private WorkloadContext.
 *
 * Results are cached the same way: a cell on a cached context can go
 * through a process-wide CellMemo, which runs each distinct (workload,
 * scale, config) once and serves every repeat a copy, so tables that
 * share cells simulate them once per process.
 */

#ifndef MDP_HARNESS_EXPERIMENT_HH
#define MDP_HARNESS_EXPERIMENT_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "harness/runner.hh"
#include "window/window_model.hh"

namespace mdp
{

/**
 * Shared, immutable WorkloadContext for (workload_name, scale), built
 * on first use and cached for the life of the process.  Thread-safe:
 * concurrent lookups of the same key block until the single builder
 * finishes; lookups of different keys build concurrently.
 */
const WorkloadContext &cachedContext(const std::string &workload_name,
                                     double scale);

/**
 * The job count of a runner built with jobs = 0: MDP_JOBS if set and
 * positive, else the hardware concurrency, else 1.
 */
unsigned experimentJobs();

/**
 * The type-erased core of ExperimentRunner::runAll(): run(0..n-1) on
 * @p jobs workers (inline, in order, when jobs <= 1), then deliver
 * (when set) each index in order, as runAll() documents.  Rethrows
 * the first exception a cell raised.
 */
void runCells(unsigned jobs, size_t n, const std::function<void(size_t)> &run,
              const std::function<void(size_t)> &deliver);

/**
 * Collects cells and runs them all, concurrently.  Each cell must be a
 * pure function of what it captures (configs carry their own fixed
 * seeds); results land in submission order, so runAll() yields the
 * same vector for any job count.  Result must be default-constructible
 * and move-assignable.
 */
template <typename Result>
class ExperimentRunner
{
  public:
    using Cell = std::function<Result()>;
    /** Completion callback: (cell index, its result). */
    using Callback = std::function<void(size_t, const Result &)>;

    /** @param jobs worker count; 0 means experimentJobs(). */
    explicit ExperimentRunner(unsigned jobs = 0)
        : njobs(jobs ? jobs : experimentJobs())
    {}

    /** Queue one cell; returns its index into runAll()'s results. */
    size_t
    add(Cell cell)
    {
        cells.push_back(std::move(cell));
        return cells.size() - 1;
    }

    /**
     * Run every queued cell and return the results in submission
     * order; the runner is empty afterwards.  @p on_done, if set, sees
     * each result in submission order, never concurrently, as soon as
     * that cell and every earlier one have finished (possibly on a
     * worker thread).
     */
    std::vector<Result>
    runAll(const Callback &on_done = {})
    {
        std::vector<Result> results(cells.size());
        auto run = [&](size_t i) { results[i] = cells[i](); };
        std::function<void(size_t)> deliver;
        if (on_done)
            deliver = [&](size_t i) { on_done(i, results[i]); };
        runCells(njobs, cells.size(), run, deliver);
        cells.clear();
        return results;
    }

  private:
    unsigned njobs;
    std::vector<Cell> cells;
};

/**
 * Results of deterministic cells, one per distinct key, for the life
 * of the process.  get() runs the cell for the first request of a key
 * and serves every later request a copy; keys match by exact equality
 * (tuples of a workload, a scale and a config whose defaulted
 * operator== takes in every field).  A result that hit its cycle cap
 * (`truncated`) is returned but never kept, so each request of its key
 * runs the cell again and reports the truncation again.  Thread-safe;
 * a key requested again while its first run is still going runs
 * again, which the tables never do (no sweep queues one key twice).
 */
template <typename Key, typename Result>
class CellMemo
{
  public:
    Result
    get(const Key &key, const std::function<Result()> &run)
    {
        ++queued;
        {
            std::lock_guard<std::mutex> hold(mtx);
            for (const auto &[k, r] : kept)
                if (k == key)
                    return r;
        }
        Result r = run();
        ++simulated;
        if constexpr (requires { r.truncated; })
            if (r.truncated)
                return r;
        std::lock_guard<std::mutex> hold(mtx);
        kept.emplace_back(key, r);
        return r;
    }

    std::atomic<size_t> queued{0};    ///< requests so far
    std::atomic<size_t> simulated{0}; ///< requests that ran their cell

  private:
    std::mutex mtx; ///< guards kept
    std::vector<std::pair<Key, Result>> kept;
};

/** Multiscalar runs, keyed by (workload, scale, config). */
using MultiscalarMemo =
    CellMemo<std::tuple<std::string, double, MultiscalarConfig>, SimResult>;

/** Window studies, keyed by (workload, scale, window, DDC sizes). */
using WindowKey =
    std::tuple<std::string, double, uint32_t, std::vector<size_t>>;
using WindowMemo = CellMemo<WindowKey, WindowStudyResult>;

/** The process's memos of cells on cachedContext(workload, scale). */
MultiscalarMemo &multiscalarMemo();
WindowMemo &windowMemo();

} // namespace mdp

#endif // MDP_HARNESS_EXPERIMENT_HH
