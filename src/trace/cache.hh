/**
 * @file
 * Persistent, content-addressed trace-artifact cache.
 *
 * Every experiment is a pure function of the generated trace, yet by
 * default every process regenerates its workload traces from scratch.
 * The cache turns generation into a build-once artifact: entries are
 * columnar trace files (serialize.hh format v2) in a directory named
 * by MDP_TRACE_CACHE, keyed by a digest of the generator's inputs
 * (format version, workload name, scale, seed, and a digest of the
 * full generator profile), and loaded back zero-copy by mmap'ing the
 * file and wrapping it in a TraceView.  The key has no generator
 * version: a profile change regenerates, while a change to generator
 * code that alters trace bytes must fail the byte pins in
 * tests/test_trace_bytes.cc, so it cannot go unnoticed while a local
 * cache serves stale entries.
 *
 * Trust model: entries are an optimization, never an authority.
 * Corrupted, truncated or version-stale files fail their header or
 * checksum validation, and a checksum-valid file whose task ids are
 * not contiguous from 0 or whose taskPc changes inside a task fails
 * the task-PC fold (trace_format::foldTaskPcs); each is unlinked, and
 * the trace is regenerated -- a damaged cache can cost time but can
 * never poison results or crash a run.  Writers stage to a temp file
 * and atomically rename, so concurrent populators of one key are safe
 * (last rename wins; both produce identical bytes).
 *
 * Residency: a mapped trace stays resident only while a pass reads
 * it.  The checksum reads every payload byte through the mapping, and
 * the loader folds the per-op taskPc column into an owned table of one
 * PC per task while those pages are resident.  On Linux the verified
 * mapping is then dropped again (TraceView::evict(), MADV_DONTNEED),
 * so a load leaves no column resident, and each pass that reads the
 * trace end to end -- DepOracle's and TaskSet's constructors, both
 * timing models' run() -- drops the pages it faulted back when it
 * ends.  No consumer reads the mapped taskPc column, so its 8 of 38
 * bytes per op stay on disk.  The OoO model and its oracle read kind,
 * src1, src2, addr and pc (25 of 38 bytes per op); taskId and
 * valueRepeats stay on disk for them too.  The mapping is private and
 * read-only, so it holds only clean file pages, and an entry is never
 * written in place once published: a page faulted back holds the
 * checksummed bytes, also for concurrent readers of one mapping.
 */

#ifndef MDP_TRACE_CACHE_HH
#define MDP_TRACE_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace mdp
{

/** The generator inputs that determine a trace's bytes (generator
 *  code aside, which tests/test_trace_bytes.cc pins). */
struct TraceCacheKey
{
    std::string workload;      ///< registered workload name
    double scale = 1.0;        ///< trace scale (MDP_SCALE hook)
    uint64_t seed = 0;         ///< generation seed
    uint64_t paramsDigest = 0; ///< profileDigest() of the generator
};

/** Content digest of a key (mixes in the trace-format version). */
uint64_t traceKeyDigest(const TraceCacheKey &key);

/**
 * A trace file mapped read-only into the address space.  Owns the
 * mapping; view() aliases it, so the MappedTrace must outlive every
 * consumer of the view.  Falls back to a heap read on platforms
 * without mmap -- the contract (validated, immutable trace bytes) is
 * identical, only the sharing is lost.  On Linux a freshly opened
 * mapping has no page resident: reading a column faults in that
 * column alone, until the pass reading it ends (see the file comment).
 */
class MappedTrace
{
  public:
    /**
     * Map and validate @p path (header sanity, size check, payload
     * checksum), fold its taskPc column into the task-PC table
     * (rejecting task ids not contiguous from 0 and a taskPc that
     * changes inside a task), then drop the pages these passes
     * touched (TraceView::evict()).  @return null and an @p error
     * description on any failure; a non-null result is fully
     * checksummed.  The other stream invariants of
     * TraceView::validate() are not checked here.
     */
    static std::unique_ptr<MappedTrace> open(const std::string &path,
                                             std::string &error);

    ~MappedTrace();
    MappedTrace(const MappedTrace &) = delete;
    MappedTrace &operator=(const MappedTrace &) = delete;

    const TraceView &view() const { return traceView; }
    std::string_view name() const { return traceView.name(); }
    size_t fileBytes() const { return mapLen; }

  private:
    MappedTrace() = default;

    const std::byte *mapBase = nullptr; ///< mmap base (null: heap)
    size_t mapLen = 0;
    std::vector<std::byte> heap; ///< non-mmap fallback storage
    std::vector<Addr> taskPcs;   ///< folded from the taskPc column
    TraceView traceView;
};

/**
 * The cache directory.  Cheap value type: construct per use site, all
 * state lives on disk.  All operations are best-effort and non-fatal:
 * I/O failures degrade to cache misses (load) or skipped writes
 * (store), never into errors visible to the simulation.
 */
class TraceCache
{
  public:
    explicit TraceCache(std::string directory);

    const std::string &dir() const { return cacheDir; }

    /** Entry file path for @p key (inside dir(), ".mdpt" suffix). */
    std::string entryPath(const TraceCacheKey &key) const;

    /**
     * Look up @p key.  @return the validated mapping on a hit; null on
     * a miss.  Entries failing validation (corrupt, truncated, stale
     * format) are unlinked so the next store repopulates them.
     */
    std::unique_ptr<MappedTrace> load(const TraceCacheKey &key) const;

    /**
     * Write @p trace under @p key: staged to the first free
     * "<entry>.tmp.<n>" sibling (created exclusively, so a file
     * already there is never touched), closed, then atomically
     * renamed.  Creates the cache directory if missing.  @return
     * false when the entry could not be written or closed (disk full,
     * file-size limit, permissions), in which case the staging file
     * is removed; the caller keeps its in-memory trace either way.
     */
    bool store(const TraceCacheKey &key, const TraceView &trace) const;

    /** Remove the entry for @p key.  @return true if one was deleted. */
    bool remove(const TraceCacheKey &key) const;

    /** Remove every entry (and stray temp files).  @return count. */
    size_t removeAll() const;

    /** One listed entry; ok=false carries the validation error. */
    struct Entry
    {
        std::string path;
        std::string workload; ///< trace name ("?" when unreadable)
        uint64_t ops = 0;
        uint64_t bytes = 0;
        bool ok = false;
        std::string error;
    };

    /**
     * Scan the directory.  @p deep additionally replays the full
     * container validation over each mapped trace (mdp_trace verify);
     * shallow scans still map and checksum every file.
     */
    std::vector<Entry> list(bool deep) const;

  private:
    std::string cacheDir;
};

/**
 * The process-wide cache configured by MDP_TRACE_CACHE (unset or
 * empty: caching off).  Re-reads the environment on every call so
 * tests and tools can repoint it.
 */
std::unique_ptr<TraceCache> traceCacheFromEnv();

/** Cumulative process-wide counters (tests, diagnostics). */
uint64_t traceCacheHits();
uint64_t traceCacheMisses();
uint64_t traceCacheStores();

} // namespace mdp

#endif // MDP_TRACE_CACHE_HH
