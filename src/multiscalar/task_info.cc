#include "multiscalar/task_info.hh"

namespace mdp
{

TaskSet::TaskSet(const TraceView &trace)
{
    bounds = trace.taskBoundaries();
    taskCount = trace.numTasks();
    taskPcs.resize(taskCount);
    storeStart.resize(taskCount + 1);
    loadStart.resize(taskCount + 1);
    // Tasks are contiguous and in order, so one pass appends every
    // task's lists behind the previous task's.
    for (uint32_t t = 0; t < taskCount; ++t) {
        taskPcs[t] = trace.taskPc(bounds[t]);
        storeStart[t] = static_cast<uint32_t>(storeSeqs.size());
        loadStart[t] = static_cast<uint32_t>(loadSeqs.size());
        for (SeqNum s = bounds[t]; s < bounds[t + 1]; ++s) {
            if (trace.isStore(s))
                storeSeqs.push_back(s);
            else if (trace.isLoad(s))
                loadSeqs.push_back(s);
        }
    }
    storeStart[taskCount] = static_cast<uint32_t>(storeSeqs.size());
    loadStart[taskCount] = static_cast<uint32_t>(loadSeqs.size());
}

} // namespace mdp
