/**
 * @file
 * Trace container, the zero-copy columnar TraceView accessor, and
 * summary statistics.
 */

#ifndef MDP_TRACE_TRACE_HH
#define MDP_TRACE_TRACE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/logging.hh"
#include "trace/microop.hh"

namespace mdp
{

/**
 * Summary statistics of a trace, used for Table 1 and sanity checks.
 */
struct TraceStats
{
    uint64_t numOps = 0;
    uint64_t numLoads = 0;
    uint64_t numStores = 0;
    uint64_t numBranches = 0;
    uint64_t numTasks = 0;
    double avgTaskSize = 0.0;
    uint64_t maxTaskSize = 0;
};

class Trace;

/**
 * A non-owning, columnar view of a dynamic instruction stream.  This
 * is the type every timing model consumes.  Each per-op MicroOp field
 * is one packed, fixed-width column (the serialize.hh v2 order and
 * widths), whether it lies in an in-memory Trace or in an mmap'd trace
 * file, so cached on-disk traces replay with zero deserialization.
 * Reads go through std::memcpy, which makes them independent of the
 * column's alignment in the file.  The task PC belongs to a task, not
 * to an op: the view holds it as a table of one PC per task
 * (taskPcs()), which a mapped file's loader folds from the file's
 * per-op column.  The view borrows its storage: the Trace or
 * MappedTrace behind it must outlive it.
 */
class TraceView
{
  public:
    /** One packed column of @c T, read by value. */
    template <typename T>
    struct Column
    {
        const std::byte *base = nullptr;

        T
        operator[](size_t i) const
        {
            T v;
            std::memcpy(&v, base + i * sizeof(T), sizeof(T));
            return v;
        }
    };

    TraceView() = default;

    /** View an in-memory trace (implicit: models take TraceView). */
    TraceView(const Trace &trace); // NOLINT(google-explicit-constructor)

    /**
     * View columnar storage (the serialize.cc v2 layout, less its
     * taskPc column).  Each pointer is a packed column of `count`
     * entries in field order; @p task_pcs holds one PC per task.
     * @p trace_name and @p task_pcs must outlive the view.
     */
    static TraceView columnar(size_t count, std::string_view trace_name,
                              std::span<const Addr> task_pcs,
                              const std::byte *pc, const std::byte *addr,
                              const std::byte *src1,
                              const std::byte *src2,
                              const std::byte *task_id,
                              const std::byte *kind,
                              const std::byte *value_repeats);

    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    std::string_view name() const { return viewName; }

    /**
     * Materialize one op (a gather of all fields at @p s).  The task
     * PC is looked up by task id; an id past the table (a malformed
     * trace, see validate()) reads 0.
     */
    MicroOp
    operator[](SeqNum s) const
    {
        MicroOp op;
        op.pc = cPc[s];
        op.addr = cAddr[s];
        op.src1 = cSrc1[s];
        op.src2 = cSrc2[s];
        op.taskId = cTaskId[s];
        op.kind = static_cast<OpKind>(cKind[s]);
        op.valueRepeats = cValueRepeats[s] != 0;
        op.taskPc =
            op.taskId < taskPcTable.size() ? taskPcTable[op.taskId] : 0;
        return op;
    }

    /**
     * Single-field accessors for hot loops.  The timing models' inner
     * loops usually need one or two fields of an op (a dependence
     * check reads src1/src2, a squash walk reads kind and addr); the
     * full operator[] gather of all eight fields is a measured hot
     * spot there, so these read exactly one column.
     */
    Addr pc(SeqNum s) const { return cPc[s]; }
    Addr addr(SeqNum s) const { return cAddr[s]; }
    SeqNum src1(SeqNum s) const { return cSrc1[s]; }
    SeqNum src2(SeqNum s) const { return cSrc2[s]; }
    uint32_t taskId(SeqNum s) const { return cTaskId[s]; }
    OpKind kind(SeqNum s) const { return static_cast<OpKind>(cKind[s]); }
    bool valueRepeats(SeqNum s) const { return cValueRepeats[s] != 0; }
    bool isLoad(SeqNum s) const { return kind(s) == OpKind::Load; }
    bool isStore(SeqNum s) const { return kind(s) == OpKind::Store; }
    bool isMemOp(SeqNum s) const { return isMem(kind(s)); }

    /**
     * PC of the first instruction of each task: one entry per run of
     * equal task ids, which on a valid trace is indexed by task id.
     */
    std::span<const Addr> taskPcs() const { return taskPcTable; }

    /**
     * The seven per-op columns as raw bytes, in file order (pc, addr,
     * src1, src2, taskId, kind, valueRepeats); writeTrace emits them
     * and expands taskPcs() into the taskPc column between addr and
     * src1.
     */
    std::array<std::span<const std::byte>, 7> columns() const;

    /** Number of tasks (max taskId + 1, or 0 for empty traces). */
    uint32_t numTasks() const;

    /** First sequence number of each task (ascending), plus end. */
    std::vector<SeqNum> taskBoundaries() const;

    /** Compute summary statistics. */
    TraceStats stats() const;

    /**
     * Check the stream invariants (contiguous tasks, producers precede
     * consumers, memory ops have addresses).
     * @return empty string when valid, else a description of the first
     *         violation found.
     */
    std::string validate() const;

  private:
    size_t count = 0;
    std::string_view viewName;
    std::span<const Addr> taskPcTable;
    Column<Addr> cPc, cAddr;
    Column<SeqNum> cSrc1, cSrc2;
    Column<uint32_t> cTaskId;
    Column<uint8_t> cKind, cValueRepeats;
};

/**
 * A dynamic instruction stream in program order (owning container):
 * one packed column per per-op MicroOp field, the layout TraceView
 * reads and writeTrace emits without a staging copy, plus the task PCs,
 * one per run of equal task ids.
 *
 * Invariants (checked by validate()):
 *  - taskId values are non-decreasing and contiguous from 0;
 *  - every producer sequence number precedes its consumer;
 *  - memory ops have nonzero addresses.
 * All ops of a task carry one taskPc; append() asserts it.
 */
class Trace
{
  public:
    Trace() = default;
    explicit Trace(std::string trace_name) : name(std::move(trace_name)) {}

    void
    reserve(size_t n)
    {
        pcs.reserve(n);
        addrs.reserve(n);
        src1s.reserve(n);
        src2s.reserve(n);
        taskIds.reserve(n);
        kinds.reserve(n);
        repeats.reserve(n);
    }

    /**
     * Append an op; returns its sequence number.  An op whose task id
     * differs from its predecessor's opens a task-PC entry; one that
     * continues a task must carry that task's PC (panics otherwise).
     */
    SeqNum
    append(const MicroOp &op)
    {
        if (taskIds.empty() || op.taskId != taskIds.back())
            taskPcs.push_back(op.taskPc);
        else
            mdp_assert(op.taskPc == taskPcs.back(),
                       "taskPc changes inside task %u at seq %zu",
                       op.taskId, pcs.size());
        pcs.push_back(op.pc);
        addrs.push_back(op.addr);
        src1s.push_back(op.src1);
        src2s.push_back(op.src2);
        taskIds.push_back(op.taskId);
        kinds.push_back(static_cast<uint8_t>(op.kind));
        repeats.push_back(op.valueRepeats ? 1 : 0);
        return static_cast<SeqNum>(pcs.size() - 1);
    }

    /** Materialize one op (a gather of all fields at @p s). */
    MicroOp operator[](SeqNum s) const { return TraceView(*this)[s]; }

    size_t size() const { return pcs.size(); }
    bool empty() const { return pcs.empty(); }

    const std::string &traceName() const { return name; }

    /** Number of tasks (max taskId + 1, or 0 for empty traces). */
    uint32_t numTasks() const { return TraceView(*this).numTasks(); }

    /** First sequence number of each task (ascending), plus end. */
    std::vector<SeqNum>
    taskBoundaries() const
    {
        return TraceView(*this).taskBoundaries();
    }

    /** Compute summary statistics. */
    TraceStats stats() const { return TraceView(*this).stats(); }

    /**
     * Check the container invariants.
     * @return empty string when valid, else a description of the first
     *         violation found.
     */
    std::string validate() const { return TraceView(*this).validate(); }

  private:
    friend class TraceView;
    friend class TraceBuilder;
    friend Trace readTrace(std::istream &is, std::string &error);

    std::string name;
    std::vector<Addr> pcs, addrs;
    std::vector<Addr> taskPcs; ///< one per run of equal task ids
    std::vector<SeqNum> src1s, src2s;
    std::vector<uint32_t> taskIds;
    std::vector<uint8_t> kinds, repeats;
};

} // namespace mdp

#endif // MDP_TRACE_TRACE_HH
