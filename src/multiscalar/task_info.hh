/**
 * @file
 * Per-task static information precomputed once per trace and shared by
 * every simulation run over it.
 */

#ifndef MDP_MULTISCALAR_TASK_INFO_HH
#define MDP_MULTISCALAR_TASK_INFO_HH

#include <cstdint>
#include <span>
#include <vector>

#include "trace/trace.hh"

namespace mdp
{

/**
 * Task boundaries and per-task memory-op lists.  The lists are stored
 * flat (CSR): the stores of task t are storeSeqs[storeStart[t] ..
 * storeStart[t+1]), and likewise for loads.
 */
class TaskSet
{
  public:
    explicit TaskSet(const TraceView &trace);

    uint32_t numTasks() const { return taskCount; }

    SeqNum taskStart(uint32_t task) const { return bounds[task]; }
    SeqNum taskEnd(uint32_t task) const { return bounds[task + 1]; }

    uint32_t
    taskSize(uint32_t task) const
    {
        return bounds[task + 1] - bounds[task];
    }

    /** PC of the first instruction of the task. */
    Addr taskPc(uint32_t task) const { return taskPcs[task]; }

    /** Store sequence numbers of the task, in program order. */
    std::span<const SeqNum>
    stores(uint32_t task) const
    {
        return {storeSeqs.data() + storeStart[task],
                storeSeqs.data() + storeStart[task + 1]};
    }

    /** Load sequence numbers of the task, in program order. */
    std::span<const SeqNum>
    loads(uint32_t task) const
    {
        return {loadSeqs.data() + loadStart[task],
                loadSeqs.data() + loadStart[task + 1]};
    }

  private:
    uint32_t taskCount = 0;
    std::vector<SeqNum> bounds;
    std::vector<Addr> taskPcs;
    std::vector<uint32_t> storeStart;
    std::vector<SeqNum> storeSeqs;
    std::vector<uint32_t> loadStart;
    std::vector<SeqNum> loadSeqs;
};

} // namespace mdp

#endif // MDP_MULTISCALAR_TASK_INFO_HH
