#include "harness/experiment.hh"

#include <map>
#include <memory>
#include <mutex>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "workloads/suites.hh"

namespace mdp
{

// ---------------------------------------------------------------------
// WorkloadContext cache
// ---------------------------------------------------------------------

namespace
{

/**
 * Cache slot: the registry lock only guards slot lookup/creation; the
 * (slow) context build happens under the slot's own once_flag so that
 * distinct workloads generate in parallel while a second requester of
 * the same key blocks until the first build completes.
 */
struct CacheSlot
{
    std::once_flag built;
    std::unique_ptr<WorkloadContext> ctx;
};

using CacheKey = std::pair<std::string, double>;

std::mutex &
cacheMutex()
{
    static std::mutex m;
    return m;
}

std::map<CacheKey, std::unique_ptr<CacheSlot>> &
cacheMap()
{
    static std::map<CacheKey, std::unique_ptr<CacheSlot>> map;
    return map;
}

} // namespace

const WorkloadContext &
cachedContext(const std::string &workload_name, double scale)
{
    CacheSlot *slot;
    {
        std::lock_guard<std::mutex> lock(cacheMutex());
        auto &entry = cacheMap()[{workload_name, scale}];
        if (!entry)
            entry = std::make_unique<CacheSlot>();
        slot = entry.get();
    }
    std::call_once(slot->built, [&] {
        slot->ctx =
            std::make_unique<WorkloadContext>(workload_name, scale);
    });
    return *slot->ctx;
}

size_t
workloadCacheSize()
{
    std::lock_guard<std::mutex> lock(cacheMutex());
    return cacheMap().size();
}

void
clearWorkloadCache()
{
    std::lock_guard<std::mutex> lock(cacheMutex());
    cacheMap().clear();
}

// ---------------------------------------------------------------------
// ExperimentRunner
// ---------------------------------------------------------------------

ExperimentRunner::ExperimentRunner(unsigned jobs)
    : njobs(jobs ? jobs : ThreadPool::defaultJobs())
{}

size_t
ExperimentRunner::add(const std::string &workload, double scale,
                      const MultiscalarConfig &cfg)
{
    return add(ExperimentCell{workload, scale, cfg});
}

size_t
ExperimentRunner::add(ExperimentCell cell)
{
    cells.push_back(std::move(cell));
    return cells.size() - 1;
}

const std::vector<SimResult> &
ExperimentRunner::runAll()
{
    results.resize(cells.size());
    if (completed == cells.size())
        return results;

    ThreadPool pool(njobs);
    for (size_t i = completed; i < cells.size(); ++i) {
        pool.submit([this, i] {
            const ExperimentCell &cell = cells[i];
            const WorkloadContext &ctx =
                cachedContext(cell.workload, cell.scale);
            results[i] = runMultiscalar(ctx, cell.cfg);
        });
    }
    pool.wait();
    completed = cells.size();
    return results;
}

const SimResult &
ExperimentRunner::result(size_t idx) const
{
    mdp_assert(idx < completed,
               "ExperimentRunner::result(%zu) before runAll()", idx);
    return results[idx];
}

std::vector<SimResult>
runGrid(const std::vector<ExperimentCell> &grid, unsigned jobs)
{
    ExperimentRunner runner(jobs);
    for (const auto &cell : grid)
        runner.add(cell);
    return runner.runAll();
}

MultiscalarConfig
makeWorkloadConfig(const std::string &workload_name, unsigned stages,
                   const std::string &policy)
{
    MultiscalarConfig cfg;
    cfg.numStages = stages;
    cfg.policyName = policy;
    cfg.taskMispredictRate =
        findWorkload(workload_name).profile().taskMispredictRate;
    cfg.sync.slotsPerEntry = stages;
    return cfg;
}

} // namespace mdp
