/**
 * @file
 * Convenience builder used by the synthetic workload generators to emit
 * well-formed traces (contiguous tasks, valid producers, PC hygiene).
 */

#ifndef MDP_TRACE_BUILDER_HH
#define MDP_TRACE_BUILDER_HH

#include <string>

#include "base/logging.hh"
#include "trace/trace.hh"

namespace mdp
{

/**
 * Builds a Trace op by op.  Tracks the current task and provides typed
 * emitters; returns sequence numbers so generators can wire dataflow.
 */
class TraceBuilder
{
  public:
    explicit TraceBuilder(std::string name)
        : trace(std::move(name))
    {}

    /** Reserve room for @p n ops; an estimate, not a limit. */
    void reserve(size_t n) { trace.reserve(n); }

    /**
     * Open a new task.  Every op emitted until the next beginTask call
     * belongs to it.
     * @param task_pc PC of the first instruction of the task; this is
     *                what the ESYNC predictor records as path context.
     */
    void
    beginTask(Addr task_pc)
    {
        if (started)
            ++curTask;
        started = true;
        curTaskPc = task_pc;
    }

    /** Emit a non-memory op. */
    SeqNum
    op(OpKind kind, Addr pc, SeqNum src1 = kNoSeq, SeqNum src2 = kNoSeq)
    {
        return push(kind, pc, 0, src1, src2);
    }

    SeqNum
    alu(Addr pc, SeqNum src1 = kNoSeq, SeqNum src2 = kNoSeq)
    {
        return push(OpKind::IntAlu, pc, 0, src1, src2);
    }

    SeqNum
    branch(Addr pc, SeqNum src1 = kNoSeq)
    {
        return push(OpKind::Branch, pc, 0, src1, kNoSeq);
    }

    /**
     * Emit a load.  @p addr_src is the producer of the address (models
     * address-generation dependences); the load completes only after it.
     */
    SeqNum
    load(Addr pc, Addr addr, SeqNum addr_src = kNoSeq)
    {
        return push(OpKind::Load, pc, addr, addr_src, kNoSeq);
    }

    /**
     * Emit a store.  @p addr_src produces the address, @p data_src the
     * value being stored.
     */
    SeqNum
    store(Addr pc, Addr addr, SeqNum addr_src = kNoSeq,
          SeqNum data_src = kNoSeq)
    {
        return push(OpKind::Store, pc, addr, addr_src, data_src);
    }

    /** Number of ops emitted so far. */
    size_t size() const { return trace.size(); }

    /**
     * Tag the most recently emitted op with value locality: it writes
     * the same value as the previous dynamic instance of its static
     * store (MicroOp::valueRepeats).
     */
    void
    setLastValueRepeats(bool repeats)
    {
        mdp_assert(!trace.empty(), "setLastValueRepeats on empty trace");
        trace.repeats.back() = repeats ? 1 : 0;
    }

    uint32_t currentTask() const { return curTask; }

    /** Finish and take the trace. */
    Trace take() { return std::move(trace); }

  private:
    SeqNum
    push(OpKind kind, Addr pc, Addr addr, SeqNum src1, SeqNum src2)
    {
        mdp_assert(started, "TraceBuilder: op emitted before beginTask");
        MicroOp op;
        op.kind = kind;
        op.pc = pc;
        op.addr = addr;
        op.src1 = src1;
        op.src2 = src2;
        op.taskId = curTask;
        op.taskPc = curTaskPc;
        return trace.append(op);
    }

    Trace trace;
    uint32_t curTask = 0;
    Addr curTaskPc = 0;
    bool started = false;
};

} // namespace mdp

#endif // MDP_TRACE_BUILDER_HH
