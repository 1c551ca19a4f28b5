#include "multiscalar/task_info.hh"

#include <algorithm>

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
    taskPcs.reserve(cap - 1);
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
            taskPcs.push_back(trace.taskPc(s));
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
}

} // namespace mdp
