#include "trace/cache.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "base/env.hh"
#include "base/hash.hh"
#include "trace/serialize.hh"

#if defined(__unix__) || defined(__APPLE__)
#define MDP_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define MDP_HAVE_MMAP 0
#endif

namespace fs = std::filesystem;

namespace mdp
{

namespace
{

std::atomic<uint64_t> gHits{0};
std::atomic<uint64_t> gMisses{0};
std::atomic<uint64_t> gStores{0};

/** Keep entry filenames portable: [A-Za-z0-9._-], rest become '_'. */
std::string
sanitizeName(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                  c == '-';
        if (!ok)
            c = '_';
    }
    return out.empty() ? "trace" : out;
}

bool
isEntryFile(const fs::path &p)
{
    return p.extension() == ".mdpt";
}

bool
isStagingFile(const fs::path &p)
{
    return p.filename().string().find(".mdpt.tmp.") !=
           std::string::npos;
}

} // namespace

// ---------------------------------------------------------------------
// Key digest
// ---------------------------------------------------------------------

uint64_t
traceKeyDigest(const TraceCacheKey &key)
{
    Fnv1a h;
    h.value<uint32_t>(trace_format::kVersion);
    h.str(key.workload);
    h.value<double>(key.scale);
    h.value<uint64_t>(key.seed);
    h.value<uint64_t>(key.paramsDigest);
    return h.digest();
}

// ---------------------------------------------------------------------
// MappedTrace
// ---------------------------------------------------------------------

std::unique_ptr<MappedTrace>
MappedTrace::open(const std::string &path, std::string &error)
{
    error.clear();
    std::unique_ptr<MappedTrace> m(new MappedTrace());

#if MDP_HAVE_MMAP
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        error = "cannot open " + path;
        return nullptr;
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
        ::close(fd);
        error = "cannot stat " + path;
        return nullptr;
    }
    const auto len = static_cast<size_t>(st.st_size);
    void *base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps the file alive
    if (base == MAP_FAILED) {
        error = "cannot mmap " + path;
        return nullptr;
    }
    m->mapBase = static_cast<const std::byte *>(base);
    m->mapLen = len;
#else
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is) {
        error = "cannot open " + path;
        return nullptr;
    }
    const auto len = static_cast<size_t>(is.tellg());
    is.seekg(0);
    m->heap.resize(len);
    is.read(reinterpret_cast<char *>(m->heap.data()),
            static_cast<std::streamsize>(len));
    if (!is.good()) {
        error = "cannot read " + path;
        return nullptr;
    }
    m->mapLen = len;
#endif

    const std::byte *base_ptr =
        m->mapBase ? m->mapBase : m->heap.data();

    if (m->mapLen < sizeof(trace_format::FileHeader)) {
        error = "file shorter than the header";
        return nullptr;
    }
    trace_format::FileHeader header{};
    std::memcpy(&header, base_ptr, sizeof(header));
    error = trace_format::checkHeader(header, m->mapLen);
    if (!error.empty())
        return nullptr;

    const std::byte *payload = base_ptr + sizeof(header);
    if (fnv1aBulk(payload, header.payloadBytes) !=
        header.payloadChecksum) {
        error = "payload checksum mismatch";
        return nullptr;
    }
    // Fold the per-op taskPc column into one PC per task while the
    // checksum has its pages resident; no consumer reads it again.
    const trace_format::Layout l =
        trace_format::layoutFor(header.count, header.nameLen);
    error = trace_format::foldTaskPcs(header.count, payload + l.taskId,
                                      payload + l.taskPc, m->taskPcs);
    if (!error.empty())
        return nullptr;
#if defined(__linux__)
    // The checksum pass faulted in every page of every column.  Unmap
    // them again so each consumer brings back only the columns it
    // reads: the mapping is private and read-only, so it holds only
    // clean file pages, and a page faulted back reads the same
    // checksummed bytes (entries are published by rename, never
    // written in place).  Advice that fails just leaves pages mapped.
    if (m->mapBase)
        ::madvise(const_cast<std::byte *>(m->mapBase), m->mapLen,
                  MADV_DONTNEED);
#endif

    const std::string_view name(
        reinterpret_cast<const char *>(payload + l.name),
        header.nameLen);
    m->traceView = TraceView::columnar(
        header.count, name, m->taskPcs, payload + l.pc, payload + l.addr,
        payload + l.src1, payload + l.src2, payload + l.taskId,
        payload + l.kind, payload + l.valueRepeats);
    return m;
}

MappedTrace::~MappedTrace()
{
#if MDP_HAVE_MMAP
    if (mapBase)
        ::munmap(const_cast<std::byte *>(mapBase), mapLen);
#endif
}

// ---------------------------------------------------------------------
// TraceCache
// ---------------------------------------------------------------------

TraceCache::TraceCache(std::string directory)
    : cacheDir(std::move(directory))
{}

std::string
TraceCache::entryPath(const TraceCacheKey &key) const
{
    return cacheDir + "/" + sanitizeName(key.workload) + "-" +
           hashHex(traceKeyDigest(key)) + ".mdpt";
}

std::unique_ptr<MappedTrace>
TraceCache::load(const TraceCacheKey &key) const
{
    const std::string path = entryPath(key);
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        gMisses.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    std::string error;
    auto mapped = MappedTrace::open(path, error);
    if (!mapped) {
        // Corrupt, truncated or stale entry: discard so the following
        // store repopulates it.  Never fatal -- the caller regenerates.
        fs::remove(path, ec);
        gMisses.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    gHits.fetch_add(1, std::memory_order_relaxed);
    return mapped;
}

bool
TraceCache::store(const TraceCacheKey &key, const TraceView &trace) const
{
    std::error_code ec;
    fs::create_directories(cacheDir, ec);

    const std::string path = entryPath(key);
    // Stage under the first free <entry>.tmp.<n>, created exclusively
    // (the create fails if the name exists), so no writer -- another
    // thread, another process, or a crashed one's leftover -- ever
    // shares or truncates this store's staging file.
    std::string tmp;
    for (unsigned n = 0; tmp.empty(); ++n) {
        std::string name = path + ".tmp." + std::to_string(n);
        if (std::FILE *f = std::fopen(name.c_str(), "wbx")) {
            std::fclose(f);
            tmp = std::move(name);
        } else if (errno != EEXIST) {
            return false;
        }
    }
    // Append to the empty file rather than truncate it: ext4 starts
    // writeback on closing a file truncated by open (auto_da_alloc),
    // which made every store ~1 ms slower.  The close flushes the
    // writer's last bytes, so a failed close is a failed store; no
    // failure may leave the staging file behind.
    std::ofstream os(tmp, std::ios::binary | std::ios::app);
    bool ok = os && writeTrace(trace, os);
    os.close();
    ok = ok && !os.fail();
    // Atomic publication: concurrent writers race benignly -- every
    // writer stages identical bytes, and rename replaces atomically.
    if (ok)
        fs::rename(tmp, path, ec);
    if (!ok || ec) {
        fs::remove(tmp, ec);
        return false;
    }
    gStores.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
TraceCache::remove(const TraceCacheKey &key) const
{
    std::error_code ec;
    return fs::remove(entryPath(key), ec);
}

size_t
TraceCache::removeAll() const
{
    std::error_code ec;
    size_t removed = 0;
    for (const auto &de : fs::directory_iterator(cacheDir, ec)) {
        const fs::path &p = de.path();
        if (!isEntryFile(p) && !isStagingFile(p))
            continue;
        std::error_code rm_ec;
        if (fs::remove(p, rm_ec))
            ++removed;
    }
    return removed;
}

std::vector<TraceCache::Entry>
TraceCache::list(bool deep) const
{
    std::vector<Entry> entries;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(cacheDir, ec)) {
        const fs::path &p = de.path();
        if (!isEntryFile(p))
            continue;
        Entry e;
        e.path = p.string();
        std::error_code sz_ec;
        e.bytes = fs::file_size(p, sz_ec);
        std::string error;
        auto mapped = MappedTrace::open(e.path, error);
        if (!mapped) {
            e.workload = std::string(1, '?');
            e.error = error;
        } else {
            e.workload = std::string(mapped->name());
            e.ops = mapped->view().size();
            e.ok = true;
            if (deep) {
                std::string invalid = mapped->view().validate();
                if (!invalid.empty()) {
                    e.ok = false;
                    e.error = "invalid trace: " + invalid;
                }
            }
        }
        entries.push_back(std::move(e));
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.path < b.path;
              });
    return entries;
}

// ---------------------------------------------------------------------
// Environment hookup and counters
// ---------------------------------------------------------------------

std::unique_ptr<TraceCache>
traceCacheFromEnv()
{
    std::string dir = envString("MDP_TRACE_CACHE", "");
    if (dir.empty())
        return nullptr;
    return std::make_unique<TraceCache>(std::move(dir));
}

uint64_t
traceCacheHits()
{
    return gHits.load(std::memory_order_relaxed);
}

uint64_t
traceCacheMisses()
{
    return gMisses.load(std::memory_order_relaxed);
}

uint64_t
traceCacheStores()
{
    return gStores.load(std::memory_order_relaxed);
}

} // namespace mdp
