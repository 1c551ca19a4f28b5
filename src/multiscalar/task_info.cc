#include "multiscalar/task_info.hh"

#include <algorithm>
#include <span>

#include "base/logging.hh"

namespace mdp
{

TaskSet::TaskSet(const TraceView &trace)
{
    // Contiguous ids from 0 give at most one task per op; a larger
    // claimed count is caught by the pass below.
    const size_t n = trace.size();
    const size_t cap = std::min<size_t>(trace.numTasks(), n) + 1;
    bounds.reserve(cap);
    loadStart.reserve(cap);
    storeStart.reserve(cap);

    uint32_t loads = 0;
    uint32_t stores = 0;
    uint32_t cur = UINT32_MAX; // so the first op must open task 0
    for (SeqNum s = 0; s < n; ++s) {
        const uint32_t id = trace.taskId(s);
        if (id != cur) {
            if (id != cur + 1)
                mdp_fatal("task ids must be contiguous from 0 at seq %u",
                          s);
            cur = id;
            bounds.push_back(s);
            loadStart.push_back(loads);
            storeStart.push_back(stores);
        }
        const OpKind k = trace.kind(s);
        loads += k == OpKind::Load;
        stores += k == OpKind::Store;
    }
    bounds.push_back(static_cast<SeqNum>(n));
    loadStart.push_back(loads);
    storeStart.push_back(stores);

    // Contiguous ids make the view's runs of equal ids its tasks.
    const std::span<const Addr> pcs = trace.taskPcs();
    mdp_assert(pcs.size() == bounds.size() - 1,
               "%zu task PCs for %zu tasks", pcs.size(),
               bounds.size() - 1);
    taskPcs.assign(pcs.begin(), pcs.end());
}

} // namespace mdp
