/**
 * @file
 * The dynamic instruction record that all processing models consume.
 *
 * A trace is a fully-resolved dynamic instruction stream: every memory
 * operation carries its effective address, every instruction carries the
 * sequence numbers of its register producers, and every instruction is
 * labelled with the Multiscalar task it belongs to.  This is the
 * information an execution-driven simulator would compute on the fly;
 * carrying it in the trace lets the timing models replay execution under
 * different speculation policies deterministically.
 */

#ifndef MDP_TRACE_MICROOP_HH
#define MDP_TRACE_MICROOP_HH

#include <cstdint>
#include <limits>

namespace mdp
{

/** Dynamic sequence number (program order position within the trace). */
using SeqNum = uint32_t;

/** Sentinel meaning "no producer". */
constexpr SeqNum kNoSeq = std::numeric_limits<SeqNum>::max();

/** Instruction address. */
using Addr = uint64_t;

/** Instruction classes, matching the functional units of Table 2. */
enum class OpKind : uint8_t
{
    IntAlu,     ///< simple integer (latency 1)
    IntMul,     ///< complex integer multiply (latency 4)
    IntDiv,     ///< complex integer divide (latency 12)
    FpAdd,      ///< FP add/sub/convert (latency 2)
    FpMul,      ///< FP multiply (latency 4)
    FpDiv,      ///< FP divide (latency 12/18)
    Branch,     ///< control transfer (latency 1)
    Load,       ///< memory read
    Store,      ///< memory write
};

/** @return true for Load/Store. */
constexpr bool
isMem(OpKind k)
{
    return k == OpKind::Load || k == OpKind::Store;
}

/** Execution latency in cycles for non-memory classes (Table 2). */
constexpr unsigned
opLatency(OpKind k)
{
    switch (k) {
      case OpKind::IntAlu:
        return 1;
      case OpKind::IntMul:
        return 4;
      case OpKind::IntDiv:
        return 12;
      case OpKind::FpAdd:
        return 2;
      case OpKind::FpMul:
        return 4;
      case OpKind::FpDiv:
        return 18;
      case OpKind::Branch:
        return 1;
      case OpKind::Load:
      case OpKind::Store:
        return 0;   // memory latency comes from the memory system
    }
    return 1;
}

/**
 * One dynamic instruction, as appended to a trace or gathered from
 * one.  Traces store each per-op field as its own column and the task
 * PC once per task (trace/trace.hh); this struct is the by-value
 * record that crosses that API.
 */
struct MicroOp
{
    Addr pc = 0;            ///< static instruction address
    Addr addr = 0;          ///< effective address (mem ops only)
    SeqNum src1 = kNoSeq;   ///< register producer (sequence number)
    SeqNum src2 = kNoSeq;   ///< second register producer
    uint32_t taskId = 0;    ///< Multiscalar task index (monotonic)
    Addr taskPc = 0;        ///< PC of the first instruction of the task
    OpKind kind = OpKind::IntAlu;
    /** Stores only: this instance writes the same value as the
     *  previous dynamic instance of the same static store (drives the
     *  value-prediction hybrid of section 6). */
    bool valueRepeats = false;

    bool isLoad() const { return kind == OpKind::Load; }
    bool isStore() const { return kind == OpKind::Store; }
    bool isMemOp() const { return isMem(kind); }
};

} // namespace mdp

#endif // MDP_TRACE_MICROOP_HH
