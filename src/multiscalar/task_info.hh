/**
 * @file
 * Per-task static information precomputed once per trace and shared by
 * every simulation run over it.
 */

#ifndef MDP_MULTISCALAR_TASK_INFO_HH
#define MDP_MULTISCALAR_TASK_INFO_HH

#include <cstdint>
#include <vector>

#include "trace/trace.hh"

namespace mdp
{

/**
 * Task boundaries, task PCs, and where each task's memory ops sit in
 * the dependence oracle's lists: the loads of task t are
 * DepOracle::loads()[loadOffset(t) .. loadOffset(t+1)), and likewise
 * for stores.  The lists themselves are the oracle's; both are in
 * program order, so a task's ops are one contiguous run of each.
 */
class TaskSet
{
  public:
    /** Fatal (exit 1) unless task ids start at 0 and each op stays in
     *  its predecessor's task or opens the next one. */
    explicit TaskSet(const TraceView &trace);

    uint32_t
    numTasks() const
    {
        return static_cast<uint32_t>(taskPcs.size());
    }

    SeqNum taskStart(uint32_t task) const { return bounds[task]; }
    SeqNum taskEnd(uint32_t task) const { return bounds[task + 1]; }

    uint32_t
    taskSize(uint32_t task) const
    {
        return bounds[task + 1] - bounds[task];
    }

    /** PC of the first instruction of the task. */
    Addr taskPc(uint32_t task) const { return taskPcs[task]; }

    /** Loads before task @p task (valid up to numTasks()). */
    uint32_t loadOffset(uint32_t task) const { return loadStart[task]; }

    /** Stores before task @p task (valid up to numTasks()). */
    uint32_t storeOffset(uint32_t task) const { return storeStart[task]; }

  private:
    std::vector<SeqNum> bounds;
    std::vector<Addr> taskPcs;
    std::vector<uint32_t> loadStart;
    std::vector<uint32_t> storeStart;
};

} // namespace mdp

#endif // MDP_MULTISCALAR_TASK_INFO_HH
