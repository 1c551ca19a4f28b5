#include "trace/serialize.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <type_traits>

#include "base/hash.hh"

namespace mdp
{

using trace_format::FileHeader;
using trace_format::Layout;

namespace
{

constexpr std::byte kZeroPad[8] = {};

/** Start offset of each payload region in file order (the name, then
 *  the eight columns), plus the payload end. */
std::array<uint64_t, 10>
regionStarts(uint64_t count, uint32_t name_len)
{
    const Layout l = trace_format::layoutFor(count, name_len);
    return {l.name,   l.pc,   l.addr, l.taskPc,       l.src1,
            l.src2,   l.taskId, l.kind, l.valueRepeats, l.end};
}

/**
 * Feed the payload of @p trace to @p sink(std::span<const std::byte>)
 * piece by piece, in file order: each region, then the zero pad that
 * brings it to the next region's offset.  The taskPc column is
 * expanded from the task table through one bounded chunk buffer, each
 * op taking the PC of its run of equal task ids (so even a malformed
 * in-memory trace writes back the PCs it was built with).
 */
template <typename Sink>
void
forEachPayloadPiece(const TraceView &trace, Sink &&sink)
{
    const auto starts = regionStarts(
        trace.size(), static_cast<uint32_t>(trace.name().size()));
    size_t region = 0;
    auto whole = [&](std::span<const std::byte> bytes) {
        sink(bytes);
        sink(std::span(kZeroPad,
                       starts[region + 1] - starts[region] - bytes.size()));
        ++region;
    };
    auto expandTaskPcs = [&] {
        constexpr size_t kChunk = 8192;
        const std::span<const Addr> table = trace.taskPcs();
        std::vector<Addr> chunk(std::min(trace.size(), kChunk));
        size_t run = 0;
        Addr pc = table.empty() ? 0 : table[0];
        uint32_t prev = trace.empty() ? 0 : trace.taskId(0);
        for (size_t b = 0; b < trace.size(); b += kChunk) {
            const size_t e = std::min(trace.size(), b + kChunk);
            for (size_t s = b; s < e; ++s) {
                const uint32_t id = trace.taskId(static_cast<SeqNum>(s));
                if (id != prev) [[unlikely]] {
                    prev = id;
                    ++run;
                    pc = run < table.size() ? table[run] : 0;
                }
                chunk[s - b] = pc;
            }
            sink(std::as_bytes(std::span(chunk.data(), e - b)));
        }
        ++region; // 8-byte entries: no pad
    };

    const auto columns = trace.columns();
    whole(std::as_bytes(std::span(trace.name())));
    whole(columns[0]); // pc
    whole(columns[1]); // addr
    expandTaskPcs();
    for (size_t i = 2; i < columns.size(); ++i)
        whole(columns[i]);
}

} // namespace

namespace trace_format
{

std::string
checkHeader(const FileHeader &header, uint64_t file_bytes)
{
    if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0)
        return "bad magic (not an mdp trace)";
    if (header.version != kVersion)
        return "unsupported trace version " +
               std::to_string(header.version);
    if (header.nameLen > 4096)
        return "bad name length";
    if (header.count > std::numeric_limits<SeqNum>::max())
        return "op count overflows sequence numbers";
    const Layout l = layoutFor(header.count, header.nameLen);
    if (header.payloadBytes != l.end)
        return "payload size does not match op count";
    if (file_bytes != 0 &&
        file_bytes != sizeof(FileHeader) + header.payloadBytes)
        return "file size does not match header (truncated?)";
    return "";
}

std::string
foldTaskPcs(uint64_t count, const std::byte *task_id,
            const std::byte *task_pc, std::vector<Addr> &table)
{
    const TraceView::Column<uint32_t> ids{task_id};
    const TraceView::Column<Addr> pcs{task_pc};
    table.clear();
    if (count == 0)
        return "";
    if (ids[0] != 0)
        return "task ids must be contiguous from 0 at seq 0";
    table.reserve(std::min<uint64_t>(uint64_t{ids[count - 1]} + 1, count));
    uint32_t cur = 0;
    Addr cur_pc = pcs[0];
    table.push_back(cur_pc);
    for (uint64_t s = 1; s < count; ++s) {
        const uint32_t id = ids[s];
        const Addr pc = pcs[s];
        if (id != cur) [[unlikely]] {
            if (id != cur + 1)
                return "task ids must be contiguous from 0 at seq " +
                       std::to_string(s);
            cur = id;
            cur_pc = pc;
            table.push_back(pc);
        } else if (pc != cur_pc) [[unlikely]] {
            return "taskPc changes inside task " + std::to_string(id) +
                   " at seq " + std::to_string(s);
        }
    }
    return "";
}

} // namespace trace_format

bool
writeTrace(const TraceView &trace, std::ostream &os)
{
    // Two passes over the payload: the header's checksum, then the
    // bytes.  The per-op columns are written where they lie.
    Fnv1aBulk checksum;
    forEachPayloadPiece(trace, [&](std::span<const std::byte> piece) {
        checksum.update(piece.data(), piece.size());
    });

    FileHeader header{};
    std::memcpy(header.magic, trace_format::kMagic,
                sizeof(header.magic));
    header.version = trace_format::kVersion;
    header.nameLen = static_cast<uint32_t>(trace.name().size());
    header.count = trace.size();
    header.payloadBytes =
        trace_format::layoutFor(header.count, header.nameLen).end;
    header.payloadChecksum = checksum.digest();

    os.write(reinterpret_cast<const char *>(&header), sizeof(header));
    forEachPayloadPiece(trace, [&](std::span<const std::byte> piece) {
        os.write(reinterpret_cast<const char *>(piece.data()),
                 static_cast<std::streamsize>(piece.size()));
    });
    return os.good();
}

bool
saveTrace(const TraceView &trace, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os || !writeTrace(trace, os))
        return false;
    os.close();
    return !os.fail();
}

Trace
readTrace(std::istream &is, std::string &error)
{
    error.clear();
    FileHeader header{};
    is.read(reinterpret_cast<char *>(&header), sizeof(header));
    if (!is.good()) {
        error = "truncated header";
        return Trace();
    }
    error = trace_format::checkHeader(header, 0);
    if (!error.empty())
        return Trace();

    const auto starts = regionStarts(header.count, header.nameLen);
    Fnv1aBulk checksum;
    size_t region = 0;
    // Read the next region (n elements into v) and its pad.  v grows
    // by at most 1 MiB per read, so a header claiming more ops than
    // the stream holds cannot size an allocation.
    auto next = [&](auto &v, uint64_t n) {
        using T = typename std::decay_t<decltype(v)>::value_type;
        constexpr uint64_t kChunk = (uint64_t{1} << 20) / sizeof(T);
        while (v.size() < n) {
            const size_t have = v.size();
            const auto take =
                static_cast<size_t>(std::min(n - have, kChunk));
            v.resize(have + take);
            auto *dst = reinterpret_cast<char *>(v.data() + have);
            const auto bytes =
                static_cast<std::streamsize>(take * sizeof(T));
            if (!is.read(dst, bytes))
                return false;
            checksum.update(dst, static_cast<size_t>(bytes));
        }
        char pad[sizeof(kZeroPad)] = {};
        const auto pad_len = static_cast<std::streamsize>(
            starts[region + 1] - starts[region] - n * sizeof(T));
        ++region;
        if (!is.read(pad, pad_len))
            return false;
        checksum.update(pad, static_cast<size_t>(pad_len));
        return true;
    };

    Trace trace;
    std::vector<Addr> op_task_pcs; // the per-op column, folded below
    const uint64_t n = header.count;
    if (!(next(trace.name, header.nameLen) && next(trace.pcs, n) &&
          next(trace.addrs, n) && next(op_task_pcs, n) &&
          next(trace.src1s, n) && next(trace.src2s, n) &&
          next(trace.taskIds, n) && next(trace.kinds, n) &&
          next(trace.repeats, n))) {
        error = "truncated payload";
        return Trace();
    }
    if (checksum.digest() != header.payloadChecksum) {
        error = "payload checksum mismatch";
        return Trace();
    }

    std::string invalid = trace_format::foldTaskPcs(
        n, reinterpret_cast<const std::byte *>(trace.taskIds.data()),
        reinterpret_cast<const std::byte *>(op_task_pcs.data()),
        trace.taskPcs);
    if (invalid.empty())
        invalid = trace.validate();
    if (!invalid.empty()) {
        error = "loaded trace is invalid: " + invalid;
        return Trace();
    }
    return trace;
}

Trace
loadTrace(const std::string &path, std::string &error)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        error = "cannot open " + path;
        return Trace();
    }
    // Check the header against the file's real size first, as
    // MappedTrace::open does; then read it again with the payload.
    std::error_code ec;
    const uint64_t file_bytes = std::filesystem::file_size(path, ec);
    if (ec) {
        error = "cannot stat " + path;
        return Trace();
    }
    FileHeader header{};
    if (!is.read(reinterpret_cast<char *>(&header), sizeof(header))) {
        error = "truncated header";
        return Trace();
    }
    error = trace_format::checkHeader(header, file_bytes);
    if (!error.empty())
        return Trace();
    is.seekg(0);
    return readTrace(is, error);
}

} // namespace mdp
