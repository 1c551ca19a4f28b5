#include "harness/experiment.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>

#include "base/env.hh"

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

MultiscalarMemo &
multiscalarMemo()
{
    static MultiscalarMemo memo;
    return memo;
}

WindowMemo &
windowMemo()
{
    static WindowMemo memo;
    return memo;
}

// ---------------------------------------------------------------------
// ExperimentRunner
// ---------------------------------------------------------------------

unsigned
experimentJobs()
{
    long jobs = envLong("MDP_JOBS", 0);
    if (jobs > 0)
        return static_cast<unsigned>(jobs);
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
runCells(unsigned jobs, size_t n, const std::function<void(size_t)> &run,
         const std::function<void(size_t)> &deliver)
{
    // Workers take cell indices from one counter.  In-order delivery:
    // a finished cell waits in `finished` until every earlier cell has
    // been handed over.  deliver runs under mtx, which keeps its calls
    // ordered and never concurrent.  A failed cell is never delivered,
    // so delivery stops before it; the other cells still run.
    std::mutex mtx;
    std::vector<char> finished(n, 0);
    size_t delivered = 0;
    std::exception_ptr firstError;
    std::atomic<size_t> next{0};

    auto work = [&] {
        for (size_t i = next++; i < n; i = next++) {
            try {
                run(i);
                if (!deliver)
                    continue;
                std::lock_guard<std::mutex> hold(mtx);
                finished[i] = 1;
                for (; delivered < n && finished[delivered]; ++delivered)
                    deliver(delivered);
            } catch (...) {
                std::lock_guard<std::mutex> hold(mtx);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    };

    const size_t nthreads = jobs > 1 ? std::min<size_t>(jobs, n) : 0;
    std::vector<std::thread> workers;
    workers.reserve(nthreads);
    try {
        while (workers.size() < nthreads)
            workers.emplace_back(work);
    } catch (const std::system_error &) {
        // No more threads can start: the ones running take every cell.
    }
    if (workers.empty())
        work(); // one job (or no thread started): inline, in order
    for (std::thread &t : workers)
        t.join();
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace mdp
