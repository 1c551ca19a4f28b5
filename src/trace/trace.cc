#include "trace/trace.hh"

#include <algorithm>

#include "base/logging.hh"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace mdp
{

namespace
{

template <typename T>
TraceView::Column<T>
columnOf(const std::vector<T> &v)
{
    return {reinterpret_cast<const std::byte *>(v.data())};
}

template <typename T>
std::span<const std::byte>
bytesOf(TraceView::Column<T> c, size_t count)
{
    return {c.base, count * sizeof(T)};
}

} // namespace

TraceView::TraceView(const Trace &trace)
    : count(trace.size()), viewName(trace.traceName()),
      taskPcTable(trace.taskPcs), cPc(columnOf(trace.pcs)),
      cAddr(columnOf(trace.addrs)), cSrc1(columnOf(trace.src1s)),
      cSrc2(columnOf(trace.src2s)), cTaskId(columnOf(trace.taskIds)),
      cKind(columnOf(trace.kinds)), cValueRepeats(columnOf(trace.repeats))
{}

TraceView
TraceView::columnar(size_t count, std::string_view trace_name,
                    std::span<const Addr> task_pcs, const std::byte *pc,
                    const std::byte *addr, const std::byte *src1,
                    const std::byte *src2, const std::byte *task_id,
                    const std::byte *kind,
                    const std::byte *value_repeats,
                    std::span<const std::byte> mapping)
{
    TraceView v;
    v.count = count;
    v.viewName = trace_name;
    v.fileMapping = mapping;
    v.taskPcTable = task_pcs;
    v.cPc = {pc};
    v.cAddr = {addr};
    v.cSrc1 = {src1};
    v.cSrc2 = {src2};
    v.cTaskId = {task_id};
    v.cKind = {kind};
    v.cValueRepeats = {value_repeats};
    return v;
}

std::array<std::span<const std::byte>, 7>
TraceView::columns() const
{
    return {bytesOf(cPc, count),   bytesOf(cAddr, count),
            bytesOf(cSrc1, count), bytesOf(cSrc2, count),
            bytesOf(cTaskId, count), bytesOf(cKind, count),
            bytesOf(cValueRepeats, count)};
}

void
TraceView::evict() const
{
#if defined(__linux__)
    // Advice that fails just leaves the pages mapped.
    if (!fileMapping.empty())
        ::madvise(const_cast<std::byte *>(fileMapping.data()),
                  fileMapping.size(), MADV_DONTNEED);
#endif
}

uint32_t
TraceView::numTasks() const
{
    if (count == 0)
        return 0;
    return cTaskId[count - 1] + 1;
}

std::vector<SeqNum>
TraceView::taskBoundaries() const
{
    std::vector<SeqNum> bounds;
    uint32_t last = UINT32_MAX;
    for (SeqNum s = 0; s < count; ++s) {
        uint32_t task = cTaskId[s];
        if (task != last) {
            bounds.push_back(s);
            last = task;
        }
    }
    bounds.push_back(static_cast<SeqNum>(count));
    return bounds;
}

TraceStats
TraceView::stats() const
{
    TraceStats st;
    st.numOps = count;
    for (SeqNum s = 0; s < count; ++s) {
        switch (kind(s)) {
          case OpKind::Load:
            ++st.numLoads;
            break;
          case OpKind::Store:
            ++st.numStores;
            break;
          case OpKind::Branch:
            ++st.numBranches;
            break;
          default:
            break;
        }
    }
    st.numTasks = numTasks();
    if (st.numTasks > 0) {
        auto bounds = taskBoundaries();
        uint64_t max_size = 0;
        for (size_t i = 0; i + 1 < bounds.size(); ++i)
            max_size = std::max<uint64_t>(max_size,
                                          bounds[i + 1] - bounds[i]);
        st.maxTaskSize = max_size;
        st.avgTaskSize = static_cast<double>(st.numOps) /
                         static_cast<double>(st.numTasks);
    }
    return st;
}

std::string
TraceView::validate() const
{
    if (count == 0)
        return "";
    if (cTaskId[0] != 0)
        return "first op must be in task 0";

    // One pass per rule, each over the columns it checks and stopping
    // short of the earliest violation found so far.  The result is the
    // lowest failing seq, a tie going to the rule checked first -- the
    // report of a per-op scan applying the rules in this order.  Each
    // pass tests a whole block of ops with no early exit, and rescans
    // op by op only a block that fails.
    constexpr size_t kBlock = 512;
    size_t end = count;
    std::string why;
    auto firstBad = [&](const char *what, auto bad) {
        for (size_t b = 0; b < end; b += kBlock) {
            const size_t e = std::min(end, b + kBlock);
            bool any = false;
            for (size_t s = b; s < e; ++s)
                any |= bad(static_cast<SeqNum>(s));
            if (!any)
                continue;
            for (size_t s = b; s < e; ++s) {
                if (bad(static_cast<SeqNum>(s))) {
                    end = s;
                    why = what;
                    why += std::to_string(s);
                    return;
                }
            }
        }
    };
    // Seq 0 is in task 0 (checked above); each later op stays in its
    // predecessor's task or opens the next one.
    firstBad("task ids must be contiguous at seq ", [this](SeqNum s) {
        return s != 0 && cTaskId[s] - cTaskId[s - 1] > 1u;
    });
    auto forward = [](SeqNum src, SeqNum s) {
        return (src != kNoSeq) & (src >= s);
    };
    firstBad("src1 does not precede consumer at seq ",
             [&](SeqNum s) { return forward(cSrc1[s], s); });
    firstBad("src2 does not precede consumer at seq ",
             [&](SeqNum s) { return forward(cSrc2[s], s); });
    firstBad("memory op with null address at seq ", [this](SeqNum s) {
        const auto k = static_cast<OpKind>(cKind[s]);
        return ((k == OpKind::Load) | (k == OpKind::Store)) &
               (cAddr[s] == 0);
    });
    return why;
}

} // namespace mdp
