/**
 * @file
 * Tests for the parallel experiment layer: thread pool, the
 * process-wide WorkloadContext cache, the ExperimentRunner's
 * parallel-equals-serial guarantee, and the JSON report round trip.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "base/table.hh"
#include "base/thread_pool.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"

namespace mdp
{
namespace
{

// Tiny scale so each cell simulates in milliseconds.
constexpr double kScale = 0.01;

TEST(ThreadPoolTest, RunsEveryTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, InlineWhenSerial)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.numThreads(), 0u);
    int ran = 0;
    pool.submit([&ran] { ++ran; });
    EXPECT_EQ(ran, 1); // ran inside submit, before wait
    pool.wait();
}

TEST(ThreadPoolTest, WaitRethrowsTaskException)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error is consumed; the pool remains usable.
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, WaitIsABarrier)
{
    ThreadPool pool(3);
    std::atomic<int> done{0};
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 20; ++i)
            pool.submit([&done] { ++done; });
        pool.wait();
        EXPECT_EQ(done.load(), (round + 1) * 20);
    }
}

TEST(WorkloadCacheTest, SameInstanceForRepeatedLookups)
{
    const WorkloadContext &a = cachedContext("espresso", kScale);
    const WorkloadContext &b = cachedContext("espresso", kScale);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.name(), "espresso");
    EXPECT_GT(a.trace().size(), 0u);

    // Distinct keys get distinct contexts.
    const WorkloadContext &c = cachedContext("espresso", kScale / 2);
    const WorkloadContext &d = cachedContext("xlisp", kScale);
    EXPECT_NE(&a, &c);
    EXPECT_NE(&a, &d);
}

TEST(WorkloadCacheTest, ThreadSafeUnderConcurrentAccess)
{
    // Use scales no other test uses so every lookup races on a
    // cold slot.
    const std::vector<std::string> names = {"espresso", "xlisp", "sc"};
    const double scale = 0.0117;

    std::vector<std::thread> threads;
    std::vector<const WorkloadContext *> got(12, nullptr);
    for (size_t i = 0; i < got.size(); ++i) {
        threads.emplace_back([&, i] {
            got[i] = &cachedContext(names[i % names.size()], scale);
        });
    }
    for (auto &t : threads)
        t.join();

    // All threads asking for the same key observed the same instance.
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_NE(got[i], nullptr);
        EXPECT_EQ(got[i], got[i % names.size()]);
        EXPECT_EQ(got[i]->name(), names[i % names.size()]);
    }
}

/** Field-by-field comparison; SimResult has no operator==. */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committedOps, b.committedOps);
    EXPECT_EQ(a.committedLoads, b.committedLoads);
    EXPECT_EQ(a.committedStores, b.committedStores);
    EXPECT_EQ(a.committedTasks, b.committedTasks);
    EXPECT_EQ(a.misSpeculations, b.misSpeculations);
    EXPECT_EQ(a.squashedOps, b.squashedOps);
    EXPECT_EQ(a.controlStalls, b.controlStalls);
    EXPECT_EQ(a.loadsBlockedSync, b.loadsBlockedSync);
    EXPECT_EQ(a.syncWaitCycles, b.syncWaitCycles);
    EXPECT_EQ(a.pred.nn, b.pred.nn);
    EXPECT_EQ(a.pred.ny, b.pred.ny);
    EXPECT_EQ(a.pred.yn, b.pred.yn);
    EXPECT_EQ(a.pred.yy, b.pred.yy);
    EXPECT_EQ(a.misspecLog, b.misspecLog);
}

std::vector<ExperimentCell>
sampleGrid()
{
    std::vector<ExperimentCell> grid;
    for (const auto &name : {"espresso", "compress"}) {
        for (unsigned stages : {4u, 8u}) {
            for (const char *p : {"always", "esync"}) {
                ExperimentCell cell;
                cell.workload = name;
                cell.scale = kScale;
                cell.cfg = makeWorkloadConfig(name, stages, p);
                cell.cfg.logMisSpeculations = true;
                grid.push_back(std::move(cell));
            }
        }
    }
    return grid;
}

TEST(ExperimentRunnerTest, ParallelMatchesSerial)
{
    std::vector<ExperimentCell> grid = sampleGrid();
    std::vector<SimResult> serial = runGrid(grid, 1);
    std::vector<SimResult> parallel = runGrid(grid, 4);

    ASSERT_EQ(serial.size(), grid.size());
    ASSERT_EQ(parallel.size(), grid.size());
    for (size_t i = 0; i < grid.size(); ++i)
        expectSameResult(serial[i], parallel[i]);
}

TEST(ExperimentRunnerTest, IncrementalAddAndIndexedResults)
{
    ExperimentRunner runner(2);
    size_t a = runner.add("espresso", kScale,
                          makeWorkloadConfig("espresso", 4, "always"));
    size_t b = runner.add("espresso", kScale,
                          makeWorkloadConfig("espresso", 4, "esync"));
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    runner.runAll();

    // ESync should not lose to blind speculation on espresso.
    EXPECT_GT(runner.result(b).ipc(), 0.0);
    EXPECT_GE(runner.result(b).ipc(),
              runner.result(a).ipc() * 0.9);

    // Adding after a run re-runs only the new cells.
    size_t c = runner.add("espresso", kScale,
                          makeWorkloadConfig("espresso", 8, "always"));
    runner.runAll();
    EXPECT_EQ(runner.numCells(), 3u);
    EXPECT_GT(runner.result(c).cycles, 0u);
}

TEST(ExperimentRunnerTest, ConfigVariantsStayIndependent)
{
    // The same (workload, scale) cell under different configs must
    // see the identical cached trace: PSYNC can never lose to ALWAYS
    // on the same input.
    ExperimentRunner runner(4);
    size_t always = runner.add(
        "sc", kScale, makeWorkloadConfig("sc", 8, "always"));
    size_t psync = runner.add(
        "sc", kScale, makeWorkloadConfig("sc", 8, "psync"));
    runner.runAll();
    EXPECT_GE(runner.result(psync).ipc(), runner.result(always).ipc());
}

TEST(JsonTest, ValueDumpAndParseRoundTrip)
{
    JsonValue doc = JsonValue::object();
    doc.set("name", JsonValue::string("quoted \"text\"\n"));
    doc.set("count", JsonValue::number(42));
    doc.set("rate", JsonValue::number(0.125));
    doc.set("ok", JsonValue::boolean(true));
    doc.set("nothing", JsonValue::null());
    JsonValue arr = JsonValue::array();
    arr.push(JsonValue::number(-1.5e-3));
    arr.push(JsonValue::string("x"));
    doc.set("list", std::move(arr));

    for (int indent : {0, 2}) {
        JsonValue back;
        std::string err;
        ASSERT_TRUE(JsonValue::parse(doc.dump(indent), back, err))
            << err;
        EXPECT_EQ(back.get("name").asString(), "quoted \"text\"\n");
        EXPECT_EQ(back.get("count").asNumber(), 42.0);
        EXPECT_EQ(back.get("rate").asNumber(), 0.125);
        EXPECT_TRUE(back.get("ok").asBool());
        EXPECT_TRUE(back.get("nothing").isNull());
        ASSERT_EQ(back.get("list").size(), 2u);
        EXPECT_EQ(back.get("list").at(0).asNumber(), -1.5e-3);
        EXPECT_EQ(back.get("list").at(1).asString(), "x");
    }
}

TEST(JsonTest, ParseRejectsMalformedInput)
{
    JsonValue out;
    std::string err;
    EXPECT_FALSE(JsonValue::parse("{", out, err));
    EXPECT_FALSE(JsonValue::parse("[1,]", out, err));
    EXPECT_FALSE(JsonValue::parse("\"unterminated", out, err));
    EXPECT_FALSE(JsonValue::parse("{\"a\":1} trailing", out, err));
    EXPECT_FALSE(JsonValue::parse("nul", out, err));
    EXPECT_FALSE(err.empty());
}

TEST(JsonTest, ReportRoundTripsThroughFile)
{
    TextTable t({"stages", "benchmark", "IPC"});
    t.row({"4", "espresso", "2.10"});
    t.row({"8", "espresso", "2.45"});

    BenchReport report("unit_test", "round-trip test");
    report.setScale(0.05);
    report.setJobs(4);
    report.addTable(t);
    report.addCheck(true, "first check");
    report.addCheck(false, "failing check");
    EXPECT_FALSE(report.allChecksOk());

    std::string path = ::testing::TempDir() + "mdp_report_test.json";
    std::string error;
    ASSERT_TRUE(report.writeTo(path, error)) << error;

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();

    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(buf.str(), doc, error)) << error;
    EXPECT_EQ(doc.get("bench").asString(), "unit_test");
    EXPECT_EQ(doc.get("reproduces").asString(), "round-trip test");
    EXPECT_EQ(doc.get("scale").asNumber(), 0.05);
    EXPECT_EQ(doc.get("jobs").asNumber(), 4.0);
    EXPECT_FALSE(doc.get("all_checks_ok").asBool());

    const JsonValue &tbl = doc.get("tables").get("main");
    ASSERT_EQ(tbl.get("header").size(), 3u);
    EXPECT_EQ(tbl.get("header").at(2).asString(), "IPC");
    ASSERT_EQ(tbl.get("rows").size(), 2u);
    EXPECT_EQ(tbl.get("rows").at(1).at(2).asString(), "2.45");

    const JsonValue &checks = doc.get("shape_checks");
    ASSERT_EQ(checks.size(), 2u);
    EXPECT_TRUE(checks.at(0).get("ok").asBool());
    EXPECT_EQ(checks.at(1).get("what").asString(), "failing check");
    EXPECT_FALSE(checks.at(1).get("ok").asBool());

    std::remove(path.c_str());
}

} // namespace
} // namespace mdp
