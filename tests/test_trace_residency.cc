/**
 * @file
 * Residency of a cached trace's mapping (Linux only).  A mapped trace
 * stays resident only while a pass reads it: MappedTrace::open drops
 * the pages its checksum touched, and DepOracle's and TaskSet's
 * constructors and both timing models' run() drop the pages they
 * faulted back when they end (TraceView::evict()).  Growth is the
 * process's RssFile from before the load to after the consumer ran,
 * measured once a warm run over a tiny trace has already faulted in
 * the code these paths execute.  Which columns a run reads is checked
 * by revoking read access to the whole pages of the columns it must
 * not read; evict() must leave an in-memory trace's bytes alone, and
 * concurrent runs evicting one mapping must not change a result.
 *
 * The kernel maps file pages in units of its page-cache folios, which
 * can be up to 2 MiB on a filesystem with large folios, so a column
 * read may also bring in up to one such unit of each neighbouring
 * column.  The bounds allow that at each end of a read column run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "multiscalar/processor.hh"
#include "multiscalar/task_info.hh"
#include "ooo/ooo_model.hh"
#include "base/hash.hh"
#include "trace/builder.hh"
#include "trace/cache.hh"
#include "trace/dep_oracle.hh"
#include "trace/serialize.hh"

namespace mdp
{
namespace
{

namespace fs = std::filesystem;

constexpr int64_t kKiB = 1024;
constexpr int64_t kMiB = 1024 * kKiB;

/** RssFile of this process in bytes; -1 when the kernel reports none. */
int64_t
rssFileBytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("RssFile:", 0) == 0)
            return std::stoll(line.substr(8)) * kKiB;
    return -1;
}

/**
 * @p ops ops in 64-op tasks: a store, a load of an earlier store's
 * address, then two ALU ops reading the load.
 */
Trace
syntheticTrace(size_t ops)
{
    TraceBuilder b("residency");
    b.reserve(ops);
    SeqNum value = kNoSeq;
    for (size_t i = 0; i < ops; ++i) {
        if (i % 64 == 0)
            b.beginTask(0x1000 + (i / 64 % 16) * 0x100);
        const Addr addr = 0x10000 + (i / 4 % 256) * 0x40;
        switch (i % 4) {
          case 0:
            b.store(0x200, addr, kNoSeq, value);
            break;
          case 1:
            value = b.load(0x300, addr);
            break;
          default:
            b.alu(0x400 + (i % 4) * 4, value);
            break;
        }
    }
    return b.take();
}

/** Sum of the kind column (reads that column only). */
uint64_t
sumKinds(const TraceView &v)
{
    uint64_t sum = 0;
    for (SeqNum s = 0; s < v.size(); ++s)
        sum += static_cast<uint8_t>(v.kind(s));
    return sum;
}

/** FNV-1a digest of each of a view's seven per-op columns. */
std::array<uint64_t, 7>
columnDigests(const TraceView &v)
{
    std::array<uint64_t, 7> d{};
    const auto cols = v.columns();
    for (size_t i = 0; i < cols.size(); ++i)
        d[i] = fnv1aBulk(cols[i].data(), cols[i].size());
    return d;
}

/**
 * Revokes read access to the whole pages inside the given byte ranges
 * of a mapping, restoring PROT_READ when it goes out of scope.  A run
 * that reads a revoked page dies of SIGSEGV.
 */
class RevokedPages
{
  public:
    explicit RevokedPages(std::vector<std::span<const std::byte>> ranges)
    {
        const auto page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
        for (const auto &r : ranges) {
            const auto lo = reinterpret_cast<uintptr_t>(r.data());
            const uintptr_t first = (lo + page - 1) / page * page;
            const uintptr_t last = (lo + r.size()) / page * page;
            if (last <= first)
                continue;
            void *p = reinterpret_cast<void *>(first);
            EXPECT_EQ(::mprotect(p, last - first, PROT_NONE), 0);
            pages.emplace_back(p, last - first);
        }
    }

    ~RevokedPages()
    {
        for (const auto &[p, len] : pages)
            EXPECT_EQ(::mprotect(p, len, PROT_READ), 0);
    }

    RevokedPages(const RevokedPages &) = delete;
    RevokedPages &operator=(const RevokedPages &) = delete;

  private:
    std::vector<std::pair<void *, size_t>> pages;
};

/** The file's taskPc column: the gap between the addr and src1 columns. */
std::span<const std::byte>
taskPcColumn(const TraceView &v)
{
    const auto cols = v.columns();
    return {cols[1].data() + cols[1].size(), cols[2].data()};
}

OooResult
runOooOver(const TraceView &v)
{
    const DepOracle oracle(v);
    OooConfig cfg;
    cfg.windowSize = 128;
    cfg.policyName = "storeset";
    return OooProcessor(v, oracle, cfg).run();
}

SimResult
runMultiscalarOver(const TraceView &v)
{
    const DepOracle oracle(v);
    const TaskSet tasks(v);
    MultiscalarConfig cfg;
    cfg.numStages = 8;
    cfg.policyName = "esync";
    return MultiscalarProcessor(v, oracle, tasks, cfg).run();
}

class TraceResidencyTest : public testing::Test
{
  protected:
    /** Ops in the measured trace: a payload of ~38 MB. */
    static constexpr size_t kOps = 1'000'000;

    void
    SetUp() override
    {
        if (rssFileBytes() < 0)
            GTEST_SKIP() << "/proc/self/status has no RssFile";
        dir = testing::TempDir() + "/mdp_residency_" +
              testing::UnitTest::GetInstance()->current_test_info()->name();
        fs::remove_all(dir);
        cache = std::make_unique<TraceCache>(dir);

        // Warm every code path the measurements run on a tiny trace.
        ASSERT_TRUE(cache->store(kWarm, syntheticTrace(4096)));
        auto warm = cache->load(kWarm);
        ASSERT_TRUE(warm);
        sumKinds(warm->view());
        runOooOver(warm->view());
        runMultiscalarOver(warm->view());

        ASSERT_TRUE(cache->store(kBig, syntheticTrace(kOps)));
        granule = faultGranule();
    }

    void
    TearDown() override
    {
        if (!dir.empty())
            fs::remove_all(dir);
    }

    /** RssFile growth from touching one byte of a fresh mapping. */
    int64_t
    faultGranule() const
    {
        auto probe = cache->load(kBig);
        const int64_t before = rssFileBytes();
        volatile Addr sink = probe->view().addr(kOps / 2);
        (void)sink;
        return std::max<int64_t>(rssFileBytes() - before, 4 * kKiB);
    }

    static int64_t
    payloadBytes(const MappedTrace &m)
    {
        return static_cast<int64_t>(m.fileBytes() -
                                    sizeof(trace_format::FileHeader));
    }

    const TraceCacheKey kWarm{"warm", 1.0, 1, 0};
    const TraceCacheKey kBig{"big", 1.0, 1, 0};
    std::string dir;
    std::unique_ptr<TraceCache> cache;
    int64_t granule = 0;
};

TEST_F(TraceResidencyTest, VerifiedLoadLeavesNoColumnResident)
{
    const int64_t before = rssFileBytes();
    auto mapped = cache->load(kBig);
    ASSERT_TRUE(mapped);
    EXPECT_LT(rssFileBytes() - before, 1 * kMiB);
}

TEST_F(TraceResidencyTest, SummingOneColumnFaultsInOnlyThatColumn)
{
    const int64_t before = rssFileBytes();
    auto mapped = cache->load(kBig);
    ASSERT_TRUE(mapped);
    EXPECT_GT(sumKinds(mapped->view()), 0u);
    // One byte per op, plus what a fault at either end may map of the
    // neighbouring taskId and valueRepeats columns.
    const int64_t edge = std::max(128 * kKiB, granule);
    EXPECT_LE(rssFileBytes() - before,
              static_cast<int64_t>(kOps) + 2 * edge);
}

TEST_F(TraceResidencyTest, OooRunLeavesTaskColumnsCold)
{
    const int64_t before = rssFileBytes();
    auto mapped = cache->load(kBig);
    ASSERT_TRUE(mapped);
    const OooResult r = runOooOver(mapped->view());
    EXPECT_EQ(r.committedOps, kOps);
    // kind, src1, src2, addr and pc are 25 of the 38 bytes per op;
    // taskPc, taskId and valueRepeats stay cold.
    EXPECT_LT(rssFileBytes() - before, payloadBytes(*mapped) * 7 / 10);
}

TEST_F(TraceResidencyTest, MultiscalarRunLeavesTaskPcCold)
{
    const int64_t before = rssFileBytes();
    auto mapped = cache->load(kBig);
    ASSERT_TRUE(mapped);
    const SimResult r = runMultiscalarOver(mapped->view());
    EXPECT_EQ(r.committedOps, kOps);
    // The oracle, the task set and the model may read every column but
    // taskPc (8 bytes per op), whose PCs the load folded into its
    // table; a fault at either end of the column may map a granule.
    const int64_t column = 8 * static_cast<int64_t>(kOps);
    const int64_t edge = std::max(128 * kKiB, granule);
    EXPECT_LT(rssFileBytes() - before,
              payloadBytes(*mapped) - column + 2 * edge);
}

TEST_F(TraceResidencyTest, OracleAndTaskSetHandTheirPagesBack)
{
    const int64_t before = rssFileBytes();
    auto mapped = cache->load(kBig);
    ASSERT_TRUE(mapped);
    const DepOracle oracle(mapped->view());
    const TaskSet tasks(mapped->view());
    EXPECT_EQ(tasks.numTasks(), kOps / 64);
    EXPECT_LT(rssFileBytes() - before, 1 * kMiB);
}

TEST_F(TraceResidencyTest, OooRunHandsItsPagesBack)
{
    const int64_t before = rssFileBytes();
    auto mapped = cache->load(kBig);
    ASSERT_TRUE(mapped);
    EXPECT_EQ(runOooOver(mapped->view()).committedOps, kOps);
    EXPECT_LT(rssFileBytes() - before, 1 * kMiB);
}

TEST_F(TraceResidencyTest, MultiscalarRunHandsItsPagesBack)
{
    const int64_t before = rssFileBytes();
    auto mapped = cache->load(kBig);
    ASSERT_TRUE(mapped);
    EXPECT_EQ(runMultiscalarOver(mapped->view()).committedOps, kOps);
    EXPECT_LT(rssFileBytes() - before, 1 * kMiB);
}

TEST_F(TraceResidencyTest, OooRunReadsNoTaskColumn)
{
    auto mapped = cache->load(kBig);
    ASSERT_TRUE(mapped);
    const TraceView &v = mapped->view();
    const auto cols = v.columns();
    const RevokedPages revoked({taskPcColumn(v), cols[4], cols[6]});
    EXPECT_EXIT(std::exit(runOooOver(v).committedOps == kOps ? 0 : 2),
                testing::ExitedWithCode(0), "");
}

TEST_F(TraceResidencyTest, MultiscalarRunReadsNoTaskPcColumn)
{
    auto mapped = cache->load(kBig);
    ASSERT_TRUE(mapped);
    const TraceView &v = mapped->view();
    const RevokedPages revoked({taskPcColumn(v)});
    EXPECT_EXIT(
        std::exit(runMultiscalarOver(v).committedOps == kOps ? 0 : 2),
        testing::ExitedWithCode(0), "");
}

TEST_F(TraceResidencyTest, ConcurrentRunsEvictingOneMappingAgree)
{
    // Each thread's runs evict the shared mapping at the end of the
    // oracle build, the task-set build and run() while the other
    // thread's runs read it.
    const TraceCacheKey key{"shared", 1.0, 1, 0};
    ASSERT_TRUE(cache->store(key, syntheticTrace(100'000)));
    auto mapped = cache->load(key);
    ASSERT_TRUE(mapped);
    const TraceView &v = mapped->view();
    const OooResult ooo = runOooOver(v);
    const SimResult ms = runMultiscalarOver(v);

    constexpr int kRounds = 3;
    std::vector<OooResult> ooo_runs(kRounds);
    std::vector<SimResult> ms_runs(kRounds);
    std::latch start(2);
    std::thread a([&] {
        start.arrive_and_wait();
        for (OooResult &r : ooo_runs)
            r = runOooOver(v);
    });
    std::thread b([&] {
        start.arrive_and_wait();
        for (SimResult &r : ms_runs)
            r = runMultiscalarOver(v);
    });
    a.join();
    b.join();
    for (int i = 0; i < kRounds; ++i) {
        EXPECT_EQ(ooo_runs[i].cycles, ooo.cycles);
        EXPECT_EQ(ooo_runs[i].squashedOps, ooo.squashedOps);
        EXPECT_EQ(ooo_runs[i].loadsBlocked, ooo.loadsBlocked);
        EXPECT_EQ(ms_runs[i].cycles, ms.cycles);
        EXPECT_EQ(ms_runs[i].squashedOps, ms.squashedOps);
        EXPECT_EQ(ms_runs[i].loadsBlockedSync, ms.loadsBlockedSync);
    }
}

TEST(TraceEvict, InMemoryTraceIsLeftAlone)
{
    // Columns large enough to own whole pages: advising them would
    // zero the bytes.
    const Trace t = syntheticTrace(200'000);
    const TraceView v(t);
    const std::array<uint64_t, 7> before = columnDigests(v);
    v.evict();
    EXPECT_EQ(columnDigests(v), before);
    EXPECT_EQ(v.kind(1), OpKind::Load);
}

} // namespace
} // namespace mdp
