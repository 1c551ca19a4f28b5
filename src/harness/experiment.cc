#include "harness/experiment.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "base/thread_pool.hh"

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

// ---------------------------------------------------------------------
// ExperimentRunner
// ---------------------------------------------------------------------

unsigned
experimentJobs()
{
    return ThreadPool::defaultJobs();
}

void
runCells(unsigned jobs, size_t n, const std::function<void(size_t)> &run,
         const std::function<void(size_t)> &deliver)
{
    // In-order delivery: a finished cell waits in `finished` until
    // every earlier cell has been handed over.  deliver runs under
    // deliverMtx, which keeps its calls ordered and never concurrent.
    std::mutex deliverMtx;
    std::vector<char> finished(n, 0);
    size_t delivered = 0;

    ThreadPool pool(static_cast<unsigned>(std::min<size_t>(jobs, n)));
    for (size_t i = 0; i < n; ++i) {
        pool.submit([&, i] {
            run(i);
            if (!deliver)
                return;
            std::lock_guard<std::mutex> hold(deliverMtx);
            finished[i] = 1;
            for (; delivered < n && finished[delivered]; ++delivered)
                deliver(delivered);
        });
    }
    pool.wait();
}

} // namespace mdp
