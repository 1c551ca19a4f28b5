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

} // namespace trace_format

bool
writeTrace(const TraceView &trace, std::ostream &os)
{
    // The regions are written where they lie; each is followed by the
    // zero pad that brings it to the next region's offset.
    std::array<std::span<const std::byte>, 9> regions;
    regions[0] = std::as_bytes(std::span(trace.name()));
    const auto columns = trace.columns();
    std::copy(columns.begin(), columns.end(), regions.begin() + 1);
    const auto starts = regionStarts(
        trace.size(), static_cast<uint32_t>(trace.name().size()));
    auto padAfter = [&](size_t i) {
        return starts[i + 1] - starts[i] - regions[i].size();
    };

    Fnv1aBulk checksum;
    for (size_t i = 0; i < regions.size(); ++i) {
        checksum.update(regions[i].data(), regions[i].size());
        checksum.update(kZeroPad, padAfter(i));
    }

    FileHeader header{};
    std::memcpy(header.magic, trace_format::kMagic,
                sizeof(header.magic));
    header.version = trace_format::kVersion;
    header.nameLen = static_cast<uint32_t>(trace.name().size());
    header.count = trace.size();
    header.payloadBytes = starts.back();
    header.payloadChecksum = checksum.digest();

    os.write(reinterpret_cast<const char *>(&header), sizeof(header));
    for (size_t i = 0; i < regions.size(); ++i) {
        os.write(reinterpret_cast<const char *>(regions[i].data()),
                 static_cast<std::streamsize>(regions[i].size()));
        os.write(reinterpret_cast<const char *>(kZeroPad),
                 static_cast<std::streamsize>(padAfter(i)));
    }
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
    const uint64_t n = header.count;
    if (!(next(trace.name, header.nameLen) && next(trace.pcs, n) &&
          next(trace.addrs, n) && next(trace.taskPcs, n) &&
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

    std::string invalid = trace.validate();
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
