/**
 * @file
 * Binary trace serialization: the columnar (SoA) trace-file format.
 *
 * Generated traces are deterministic, but saving them lets external
 * tools exchange workloads, makes long-trace experiments restartable,
 * and -- through the trace cache (trace/cache.hh) -- turns trace
 * generation into a build-once artifact.  Format v2 is the layout
 * Trace and TraceView already use: after a fixed little-endian header
 * and the name bytes, each MicroOp field is one packed column of its
 * own width, so the writer emits the columns where they lie and an
 * mmap'd file is wrapped by a TraceView without any deserialization.
 * The name and the two 1-byte columns are zero-padded to 8 bytes.  A
 * bulk FNV-1a checksum over the payload (Fnv1aBulk, base/hash.hh)
 * detects corruption and truncation; readers never trust a file.
 *
 * The one exception is the task PC: it is a per-op column on disk but
 * one PC per task in memory (Trace, TraceView::taskPcs()).  The writer
 * expands the table into the column chunk by chunk, and both loaders
 * fold the column back (foldTaskPcs), rejecting a file whose task PC
 * changes inside a task, so the mapped column is read once, at load.
 */

#ifndef MDP_TRACE_SERIALIZE_HH
#define MDP_TRACE_SERIALIZE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace mdp
{

namespace trace_format
{

constexpr char kMagic[8] = {'M', 'D', 'P', 'T', 'R', 'A', 'C', 'E'};

/** Bump on any layout change; stale files are discarded, not read. */
constexpr uint32_t kVersion = 2;

/** Fixed file header (little-endian, followed by the payload). */
struct FileHeader
{
    char magic[8];
    uint32_t version;
    uint32_t nameLen;        ///< trace-name bytes (unpadded)
    uint64_t count;          ///< ops in the trace
    uint64_t payloadBytes;   ///< name + columns, as laid out below
    uint64_t payloadChecksum; ///< FNV-1a over the payload bytes
};
static_assert(sizeof(FileHeader) == 40, "unexpected header padding");

/** Round up to the 8-byte column alignment. */
constexpr uint64_t
pad8(uint64_t n)
{
    return (n + 7) & ~uint64_t{7};
}

/** Byte offsets of each region, relative to the payload start. */
struct Layout
{
    uint64_t name = 0;
    uint64_t pc = 0;
    uint64_t addr = 0;
    uint64_t taskPc = 0;
    uint64_t src1 = 0;
    uint64_t src2 = 0;
    uint64_t taskId = 0;
    uint64_t kind = 0;
    uint64_t valueRepeats = 0;
    uint64_t end = 0; ///< total payload size
};

/** Compute the column layout for a trace shape. */
constexpr Layout
layoutFor(uint64_t count, uint32_t name_len)
{
    Layout l;
    l.name = 0;
    l.pc = pad8(name_len);
    l.addr = l.pc + count * 8;
    l.taskPc = l.addr + count * 8;
    l.src1 = l.taskPc + count * 8;
    l.src2 = l.src1 + count * 4;
    l.taskId = l.src2 + count * 4;
    l.kind = l.taskId + count * 4;
    l.valueRepeats = l.kind + pad8(count);
    l.end = l.valueRepeats + pad8(count);
    return l;
}

/**
 * Validate a header against @p file_bytes (0 = unknown size, e.g.
 * streams).  @return empty string when plausible, else the reason.
 */
std::string checkHeader(const FileHeader &header, uint64_t file_bytes);

/**
 * Fold the per-op taskPc column into @p table, one PC per task.
 * @p task_id and @p task_pc are packed columns of @p count entries
 * (any alignment).  @return empty when the task ids are contiguous
 * from 0 (TaskSet's rule: each op stays in its predecessor's task or
 * opens the next one) and every op of a task carries the task's first
 * PC; else the first violation.
 */
std::string foldTaskPcs(uint64_t count, const std::byte *task_id,
                        const std::byte *task_pc,
                        std::vector<Addr> &table);

} // namespace trace_format

/** Write a trace to a stream.  @return false on I/O failure. */
bool writeTrace(const TraceView &trace, std::ostream &os);

/** Write a trace to a file.  @return false on I/O failure,
 *  including a failed final flush on close. */
bool saveTrace(const TraceView &trace, const std::string &path);

/**
 * Read a trace from a stream (checksum-verified copy into memory; for
 * the zero-copy path see MappedTrace in trace/cache.hh).  Each
 * column's allocation follows the bytes the stream has delivered
 * (within twice that plus one 1 MiB read), never the op count the
 * header claims.  The taskPc column is read into a temporary and
 * folded once the task ids are in; the trace must pass foldTaskPcs
 * and TraceView::validate().
 * @param error Receives a description when reading fails.
 * @return the trace, empty on failure (check @p error).
 */
Trace readTrace(std::istream &is, std::string &error);

/** Read a trace from a file, checking the header against the file's
 *  size before reading the payload. */
Trace loadTrace(const std::string &path, std::string &error);

} // namespace mdp

#endif // MDP_TRACE_SERIALIZE_HH
