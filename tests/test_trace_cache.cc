/**
 * @file
 * Tests for the persistent trace-artifact cache: key derivation,
 * round-trip fidelity of the mmap'd zero-copy path, the trust model
 * (truncation, corruption and stale versions degrade to misses and
 * unlink the entry), concurrent population, and the harness
 * integration behind MDP_TRACE_CACHE.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <array>
#include <atomic>
#include <cstring>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <thread>
#include <vector>

#include "base/hash.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "trace/cache.hh"
#include "trace/serialize.hh"
#include "workloads/suites.hh"
#include "workloads/workload.hh"

namespace mdp
{
namespace
{

namespace fs = std::filesystem;

// Tiny scale so generation takes milliseconds.
constexpr double kScale = 0.01;

/** A fresh, empty cache directory unique to one test. */
std::string
freshDir(const std::string &tag)
{
    std::string dir = testing::TempDir() + "/mdp_cache_" + tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

TraceCacheKey
keyFor(const std::string &workload, double scale = kScale)
{
    return workloadTraceKey(findWorkload(workload), scale);
}

/** Read a cache entry's raw bytes. */
std::vector<char>
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(is),
                             std::istreambuf_iterator<char>());
}

void
spew(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --------------------------------------------------------------------
// Key derivation
// --------------------------------------------------------------------

TEST(TraceCacheKeyTest, DigestSeparatesEveryField)
{
    const TraceCacheKey base = keyFor("espresso");
    uint64_t d0 = traceKeyDigest(base);

    TraceCacheKey other = base;
    other.workload = "xlisp";
    EXPECT_NE(traceKeyDigest(other), d0);

    other = base;
    other.scale = kScale * 2;
    EXPECT_NE(traceKeyDigest(other), d0);

    other = base;
    other.seed ^= 1;
    EXPECT_NE(traceKeyDigest(other), d0);

    other = base;
    other.paramsDigest ^= 1;
    EXPECT_NE(traceKeyDigest(other), d0);

    EXPECT_EQ(traceKeyDigest(base), d0); // deterministic
}

TEST(TraceCacheKeyTest, ProfileChangesChangeTheKey)
{
    // Two different workloads must never share an entry, even at the
    // same scale: their profile digests differ.
    EXPECT_NE(traceKeyDigest(keyFor("espresso")),
              traceKeyDigest(keyFor("compress")));
}

// --------------------------------------------------------------------
// Round trip through the store
// --------------------------------------------------------------------

TEST(TraceCacheTest, MissThenHitRoundTripsEveryField)
{
    TraceCache cache(freshDir("roundtrip"));
    const TraceCacheKey key = keyFor("espresso");

    EXPECT_EQ(cache.load(key), nullptr); // cold: miss

    Trace orig = findWorkload("espresso").generate(kScale);
    ASSERT_TRUE(cache.store(key, orig));

    std::unique_ptr<MappedTrace> hit = cache.load(key);
    ASSERT_NE(hit, nullptr);
    const TraceView &view = hit->view();
    ASSERT_EQ(view.size(), orig.size());
    EXPECT_EQ(view.name(), orig.traceName());
    for (SeqNum s = 0; s < orig.size(); ++s) {
        const MicroOp a = TraceView(orig)[s];
        const MicroOp b = view[s];
        ASSERT_EQ(a.pc, b.pc) << "op " << s;
        ASSERT_EQ(a.addr, b.addr) << "op " << s;
        ASSERT_EQ(a.src1, b.src1) << "op " << s;
        ASSERT_EQ(a.src2, b.src2) << "op " << s;
        ASSERT_EQ(a.taskId, b.taskId) << "op " << s;
        ASSERT_EQ(a.taskPc, b.taskPc) << "op " << s;
        ASSERT_EQ(a.kind, b.kind) << "op " << s;
        ASSERT_EQ(a.valueRepeats, b.valueRepeats) << "op " << s;
    }
    const std::span<const Addr> want = TraceView(orig).taskPcs();
    const std::span<const Addr> got = view.taskPcs();
    EXPECT_EQ(std::vector<Addr>(got.begin(), got.end()),
              std::vector<Addr>(want.begin(), want.end()));
    EXPECT_EQ(got.size(), orig.numTasks());
}

TEST(TraceCacheTest, DistinctKeysDoNotCollide)
{
    TraceCache cache(freshDir("keys"));
    Trace a = findWorkload("espresso").generate(kScale);
    Trace b = findWorkload("compress").generate(kScale);
    ASSERT_TRUE(cache.store(keyFor("espresso"), a));
    ASSERT_TRUE(cache.store(keyFor("compress"), b));

    auto ha = cache.load(keyFor("espresso"));
    auto hb = cache.load(keyFor("compress"));
    ASSERT_NE(ha, nullptr);
    ASSERT_NE(hb, nullptr);
    EXPECT_EQ(ha->name(), "espresso");
    EXPECT_EQ(hb->name(), "compress");
    // A scale no one stored stays a miss.
    EXPECT_EQ(cache.load(keyFor("espresso", kScale * 3)), nullptr);
}

TEST(TraceCacheTest, RemoveAndRemoveAllEvict)
{
    TraceCache cache(freshDir("evict"));
    Trace a = findWorkload("espresso").generate(kScale);
    Trace b = findWorkload("compress").generate(kScale);
    ASSERT_TRUE(cache.store(keyFor("espresso"), a));
    ASSERT_TRUE(cache.store(keyFor("compress"), b));
    EXPECT_EQ(cache.list(false).size(), 2u);

    EXPECT_TRUE(cache.remove(keyFor("espresso")));
    EXPECT_FALSE(cache.remove(keyFor("espresso"))); // already gone
    EXPECT_EQ(cache.load(keyFor("espresso")), nullptr);
    ASSERT_NE(cache.load(keyFor("compress")), nullptr);

    EXPECT_EQ(cache.removeAll(), 1u);
    EXPECT_EQ(cache.list(false).size(), 0u);
}

// --------------------------------------------------------------------
// Trust model: damaged entries are misses, and are unlinked
// --------------------------------------------------------------------

class TraceCacheDamageTest : public testing::Test
{
  protected:
    void
    populate(const std::string &tag)
    {
        cache = std::make_unique<TraceCache>(freshDir(tag));
        key = keyFor("espresso");
        Trace t = findWorkload("espresso").generate(kScale);
        ASSERT_TRUE(cache->store(key, t));
        path = cache->entryPath(key);
        bytes = slurp(path);
        ASSERT_GT(bytes.size(), sizeof(trace_format::FileHeader));
    }

    /** Re-checksum the payload, so only the task-PC fold can reject
     *  the entry. */
    void
    reseal()
    {
        trace_format::FileHeader header{};
        std::memcpy(&header, bytes.data(), sizeof(header));
        header.payloadChecksum =
            fnv1aBulk(bytes.data() + sizeof(header),
                      bytes.size() - sizeof(header));
        std::memcpy(bytes.data(), &header, sizeof(header));
    }

    /** The open's error for the entry as it is on disk. */
    std::string
    openError() const
    {
        std::string error;
        EXPECT_EQ(MappedTrace::open(path, error), nullptr);
        return error;
    }

    /** The damaged entry must miss and be deleted, not trusted. */
    void
    expectRejectedAndUnlinked()
    {
        EXPECT_EQ(cache->load(key), nullptr);
        EXPECT_FALSE(fs::exists(path));
    }

    std::unique_ptr<TraceCache> cache;
    TraceCacheKey key;
    std::string path;
    std::vector<char> bytes;
};

TEST_F(TraceCacheDamageTest, TruncatedEntryIsRejected)
{
    populate("truncated");
    bytes.resize(bytes.size() / 2);
    spew(path, bytes);
    expectRejectedAndUnlinked();
}

TEST_F(TraceCacheDamageTest, HeaderOnlyEntryIsRejected)
{
    populate("headeronly");
    bytes.resize(sizeof(trace_format::FileHeader));
    spew(path, bytes);
    expectRejectedAndUnlinked();
}

TEST_F(TraceCacheDamageTest, FlippedPayloadByteFailsChecksum)
{
    populate("flipped");
    bytes[bytes.size() - 9] ^= 0x40; // deep in the last column
    spew(path, bytes);
    expectRejectedAndUnlinked();
}

TEST_F(TraceCacheDamageTest, StaleFormatVersionIsRejected)
{
    populate("stale");
    // Pretend the file was written by a future/older format: bump the
    // version field in place (offset 8, after the magic).
    trace_format::FileHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    header.version = trace_format::kVersion + 1;
    std::memcpy(bytes.data(), &header, sizeof(header));
    spew(path, bytes);
    expectRejectedAndUnlinked();
}

TEST_F(TraceCacheDamageTest, TaskIdGapIsRejected)
{
    // A checksum-valid entry with task ids {0, 3}: TaskSet would fatal
    // on it, so the load must turn it into a miss first.
    cache = std::make_unique<TraceCache>(freshDir("taskgap"));
    key = keyFor("espresso");
    Trace t("forged");
    for (uint32_t id : {0u, 3u}) {
        MicroOp op;
        op.taskId = id;
        op.taskPc = 0x100 + id;
        t.append(op);
    }
    ASSERT_TRUE(cache->store(key, t));
    path = cache->entryPath(key);
    EXPECT_EQ(openError(), "task ids must be contiguous from 0 at seq 1");
    expectRejectedAndUnlinked();
}

TEST_F(TraceCacheDamageTest, TaskPcChangeInsideATaskIsRejected)
{
    populate("taskpc");
    trace_format::FileHeader header{};
    std::memcpy(&header, bytes.data(), sizeof(header));
    const trace_format::Layout l =
        trace_format::layoutFor(header.count, header.nameLen);
    char *payload = bytes.data() + sizeof(header);
    uint32_t id1 = 0;
    std::memcpy(&id1, payload + l.taskId + 4, sizeof(id1));
    ASSERT_EQ(id1, 0u) << "op 1 must share task 0 with op 0";
    Addr pc = 0;
    std::memcpy(&pc, payload + l.taskPc + 8, sizeof(pc));
    pc ^= 0x40;
    std::memcpy(payload + l.taskPc + 8, &pc, sizeof(pc));
    reseal();
    spew(path, bytes);
    EXPECT_EQ(openError(), "taskPc changes inside task 0 at seq 1");
    expectRejectedAndUnlinked();
}

TEST_F(TraceCacheDamageTest, GarbageFileIsRejected)
{
    populate("garbage");
    spew(path, std::vector<char>(1024, 'x'));
    expectRejectedAndUnlinked();
}

/**
 * Store @p trace with the file-size limit at 4 KiB (SIGXFSZ ignored,
 * so the write fails instead of killing the process), then exit 0 iff
 * the store failed and left nothing in @p dir.  Runs in a forked
 * child so the limit cannot reach the rest of the suite.
 */
[[noreturn]] void
storeUnderFileSizeLimit(const std::string &dir, const TraceCacheKey &key,
                        const TraceView &trace)
{
    std::signal(SIGXFSZ, SIG_IGN);
    rlimit limit{};
    limit.rlim_cur = limit.rlim_max = 4096;
    ::setrlimit(RLIMIT_FSIZE, &limit);
    const bool stored = TraceCache(dir).store(key, trace);
    size_t left = 0;
    for (const auto &de : fs::directory_iterator(dir)) {
        std::fprintf(stderr, "left behind: %s\n", de.path().c_str());
        ++left;
    }
    std::exit(!stored && left == 0 ? 0 : 1);
}

TEST(TraceCacheTest, FailedWriteLeavesNoStagingFile)
{
    const std::string dir = freshDir("fsize");
    const TraceCacheKey key = keyFor("compress", 0.02);
    Trace t = findWorkload("compress").generate(0.02);
    EXPECT_EXIT(storeUnderFileSizeLimit(dir, key, t),
                testing::ExitedWithCode(0), "");
}

// --------------------------------------------------------------------
// Concurrent population
// --------------------------------------------------------------------

TEST(TraceCacheTest, TwoThreadsRacingOneKeyBothSucceed)
{
    TraceCache cache(freshDir("race"));
    const TraceCacheKey key = keyFor("espresso");
    Trace t = findWorkload("espresso").generate(kScale);

    // Both writers stage to distinct temp files and rename onto the
    // same entry; whoever wins, the bytes are identical and valid.
    // (Atomics, not vector<bool>: bit-packed elements share a word,
    // which is a data race under concurrent writers.)
    std::vector<std::thread> threads;
    std::array<std::atomic<bool>, 2> stored = {false, false};
    for (int i = 0; i < 2; ++i)
        threads.emplace_back(
            [&, i] { stored[i] = cache.store(key, t); });
    for (auto &th : threads)
        th.join();
    EXPECT_TRUE(stored[0]);
    EXPECT_TRUE(stored[1]);

    auto hit = cache.load(key);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->view().size(), t.size());
    // No stray temp files left behind.
    for (const auto &ent : fs::directory_iterator(cache.dir()))
        EXPECT_EQ(ent.path().extension(), ".mdpt")
            << ent.path().string();
}

TEST(TraceCacheTest, StoreLeavesAnExistingStagingFileUntouched)
{
    // A file at the first staging name -- another writer's, or a
    // crashed one's -- is neither truncated nor renamed: the store
    // stages under the next free name and still publishes.
    TraceCache cache(freshDir("staged"));
    const TraceCacheKey key = keyFor("espresso");
    Trace t = findWorkload("espresso").generate(kScale);
    const std::string squatter = cache.entryPath(key) + ".tmp.0";
    const std::vector<char> bytes = {'m', 'i', 'n', 'e', '\0', '\n'};
    spew(squatter, bytes);

    ASSERT_TRUE(cache.store(key, t));
    EXPECT_EQ(slurp(squatter), bytes);
    EXPECT_EQ(std::distance(fs::directory_iterator(cache.dir()),
                            fs::directory_iterator{}),
              2)
        << "only the entry and the squatter remain";
    auto hit = cache.load(key);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->view().size(), t.size());
}

// --------------------------------------------------------------------
// Harness integration: MDP_TRACE_CACHE
// --------------------------------------------------------------------

/** RAII guard: point MDP_TRACE_CACHE somewhere, restore on exit. */
class ScopedCacheEnv
{
  public:
    explicit ScopedCacheEnv(const std::string &dir)
    {
        const char *old = std::getenv("MDP_TRACE_CACHE");
        saved = old ? old : "";
        hadOld = old != nullptr;
        ::setenv("MDP_TRACE_CACHE", dir.c_str(), 1);
    }

    ~ScopedCacheEnv()
    {
        if (hadOld)
            ::setenv("MDP_TRACE_CACHE", saved.c_str(), 1);
        else
            ::unsetenv("MDP_TRACE_CACHE");
    }

  private:
    std::string saved;
    bool hadOld = false;
};

TEST(TraceCacheHarnessTest, ContextPopulatesThenHitsAndMatches)
{
    std::string dir = freshDir("harness");
    ScopedCacheEnv env(dir);

    uint64_t misses0 = traceCacheMisses();
    uint64_t hits0 = traceCacheHits();

    WorkloadContext cold("sc", kScale);
    EXPECT_FALSE(cold.fromTraceCache());
    EXPECT_EQ(traceCacheMisses(), misses0 + 1);

    WorkloadContext warm("sc", kScale);
    EXPECT_TRUE(warm.fromTraceCache());
    EXPECT_EQ(traceCacheHits(), hits0 + 1);

    // The mmap'd trace drives the simulation to identical results.
    SimResult rc = runMultiscalar(
        cold, makeMultiscalarConfig(cold, 4, "esync"));
    SimResult rw = runMultiscalar(
        warm, makeMultiscalarConfig(warm, 4, "esync"));
    EXPECT_EQ(rc.cycles, rw.cycles);
    EXPECT_EQ(rc.committedOps, rw.committedOps);
    EXPECT_EQ(rc.misSpeculations, rw.misSpeculations);
    EXPECT_EQ(rc.syncWaitCycles, rw.syncWaitCycles);
}

TEST(TraceCacheHarnessTest, CorruptEntryRegeneratesTransparently)
{
    std::string dir = freshDir("harness_corrupt");
    ScopedCacheEnv env(dir);

    WorkloadContext seedctx("sc", kScale);
    TraceCache cache(dir);
    std::string path = cache.entryPath(keyFor("sc"));
    ASSERT_TRUE(fs::exists(path));

    std::vector<char> bytes = slurp(path);
    bytes[bytes.size() / 2] ^= 0xff;
    spew(path, bytes);

    // The damaged entry must not crash, must not poison results, and
    // must be replaced by a fresh, valid one.
    WorkloadContext again("sc", kScale);
    EXPECT_FALSE(again.fromTraceCache());
    EXPECT_EQ(again.trace().size(), seedctx.trace().size());
    auto hit = cache.load(keyFor("sc"));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->view().size(), seedctx.trace().size());
}

TEST(TraceCacheHarnessTest, UnsetEnvironmentDisablesTheCache)
{
    std::string dir = freshDir("harness_off");
    {
        ScopedCacheEnv env(""); // empty MDP_TRACE_CACHE: off
        WorkloadContext ctx("sc", kScale);
        EXPECT_FALSE(ctx.fromTraceCache());
    }
    EXPECT_TRUE(fs::is_empty(dir));
}

} // namespace
} // namespace mdp
