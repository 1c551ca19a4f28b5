/**
 * @file
 * Tests for the parallel experiment layer: the process-wide
 * WorkloadContext cache, the ExperimentRunner's parallel-equals-serial
 * guarantee, in-order completion callback and exception rethrow, the
 * cell memo (its key covers every config field, a repeat is served,
 * a truncated run never is) and the JSON report round trip.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "base/table.hh"
#include "bench_common.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "window/window_model.hh"
#include "workloads/suites.hh"

namespace mdp
{
namespace
{

// Tiny scale so each cell simulates in milliseconds.
constexpr double kScale = 0.01;

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

void
expectSameResult(const OooResult &a, const OooResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committedOps, b.committedOps);
    EXPECT_EQ(a.committedLoads, b.committedLoads);
    EXPECT_EQ(a.misSpeculations, b.misSpeculations);
    EXPECT_EQ(a.squashedOps, b.squashedOps);
    EXPECT_EQ(a.loadsBlocked, b.loadsBlocked);
    EXPECT_EQ(a.frontierReleases, b.frontierReleases);
}

void
expectSameResult(const WindowStudyResult &a, const WindowStudyResult &b)
{
    EXPECT_EQ(a.windowSize, b.windowSize);
    EXPECT_EQ(a.misSpeculations, b.misSpeculations);
    EXPECT_EQ(a.staticDeps, b.staticDeps);
    EXPECT_EQ(a.staticDepsFor999, b.staticDepsFor999);
    EXPECT_EQ(a.ddcMissRates, b.ddcMissRates);
}

/** Run @p cells at 1 and at 4 jobs; expect equal results, in order. */
template <typename Result>
void
expectParallelMatchesSerial(
    const std::vector<std::function<Result()>> &cells)
{
    std::vector<Result> runs[2];
    for (unsigned jobs : {1u, 4u}) {
        ExperimentRunner<Result> runner(jobs);
        for (const auto &cell : cells)
            runner.add(cell);
        runs[jobs == 4] = runner.runAll();
    }
    ASSERT_EQ(runs[0].size(), cells.size());
    ASSERT_EQ(runs[1].size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i)
        expectSameResult(runs[0][i], runs[1][i]);
}

std::function<SimResult()>
multiscalarCell(const std::string &name, unsigned stages,
                const std::string &policy)
{
    return [=] {
        const WorkloadContext &ctx = cachedContext(name, kScale);
        MultiscalarConfig cfg = makeMultiscalarConfig(ctx, stages, policy);
        cfg.logMisSpeculations = true;
        return runMultiscalar(ctx, cfg);
    };
}

TEST(ExperimentRunnerTest, ParallelMatchesSerial)
{
    std::vector<std::function<SimResult()>> multiscalar;
    for (const char *name : {"espresso", "compress"})
        for (unsigned stages : {4u, 8u})
            for (const char *p : {"always", "esync"})
                multiscalar.push_back(multiscalarCell(name, stages, p));
    expectParallelMatchesSerial(multiscalar);

    std::vector<std::function<OooResult()>> ooo;
    for (const char *name : {"espresso", "xlisp"})
        for (unsigned window : {16u, 64u})
            for (const char *p : {"always", "sync"})
                ooo.push_back([=] {
                    OooConfig cfg;
                    cfg.windowSize = window;
                    cfg.policyName = p;
                    return runOoo(cachedContext(name, kScale), cfg);
                });
    expectParallelMatchesSerial(ooo);

    std::vector<std::function<WindowStudyResult()>> window;
    for (const char *name : {"gcc", "sc"})
        for (uint32_t ws : {8u, 128u})
            window.push_back([=] {
                const WorkloadContext &ctx = cachedContext(name, kScale);
                return WindowModel(ctx.trace(), ctx.oracle())
                    .study(ws, {32, 512});
            });
    expectParallelMatchesSerial(window);

    // Private contexts: one shared by reference across cells, and
    // cells that each generate their own from a custom profile.
    WorkloadContext shared(findWorkload("sc").generate(kScale), 0.05);
    WorkloadProfile vp = findWorkload("espresso").profile();
    vp.name = "espresso-test-vs0.9";
    for (auto &rec : vp.recurrences)
        rec.valueStability = 0.9;
    const Workload variant(std::move(vp));
    std::vector<std::function<SimResult()>> owned;
    for (const char *p : {"always", "sync", "vsync"}) {
        owned.push_back([&shared, p] {
            return runMultiscalar(shared,
                                  makeMultiscalarConfig(shared, 8, p));
        });
        owned.push_back([&variant, p] {
            WorkloadContext ctx(variant.generate(kScale));
            return runMultiscalar(ctx, makeMultiscalarConfig(ctx, 4, p));
        });
    }
    expectParallelMatchesSerial(owned);
}

TEST(ExperimentRunnerTest, IncrementalAddAndIndexedResults)
{
    ExperimentRunner<SimResult> runner(2);
    size_t a = runner.add(multiscalarCell("espresso", 4, "always"));
    size_t b = runner.add(multiscalarCell("espresso", 4, "esync"));
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    const std::vector<SimResult> first = runner.runAll();
    ASSERT_EQ(first.size(), 2u);

    // ESync should not lose to blind speculation on espresso.
    EXPECT_GT(first[b].ipc(), 0.0);
    EXPECT_GE(first[b].ipc(), first[a].ipc() * 0.9);

    // runAll() empties the runner: cells added after a run start a
    // new grid, and only they run.
    size_t c = runner.add(multiscalarCell("espresso", 8, "always"));
    EXPECT_EQ(c, 0u);
    const std::vector<SimResult> second = runner.runAll();
    ASSERT_EQ(second.size(), 1u);
    EXPECT_GT(second[c].cycles, 0u);
}

TEST(ExperimentRunnerTest, ConfigVariantsStayIndependent)
{
    // The same (workload, scale) cell under different configs must
    // see the identical cached trace: PSYNC can never lose to ALWAYS
    // on the same input.
    ExperimentRunner<SimResult> runner(4);
    size_t always = runner.add(multiscalarCell("sc", 8, "always"));
    size_t psync = runner.add(multiscalarCell("sc", 8, "psync"));
    const std::vector<SimResult> r = runner.runAll();
    EXPECT_GE(r[psync].ipc(), r[always].ipc());
}

TEST(ExperimentRunnerTest, InOrderCallback)
{
    // Cell 0 is deliberately the slowest: it holds until every other
    // cell has finished (bounded, so a broken pool fails instead of
    // hanging).  The callback must still see 0..n-1 in order, each
    // with its own result, and never two calls at once.
    constexpr size_t kCells = 24;
    std::atomic<size_t> othersDone{0};
    ExperimentRunner<size_t> runner(4);
    for (size_t i = 0; i < kCells; ++i) {
        runner.add([i, &othersDone] {
            if (i == 0) {
                for (int spin = 0; spin < 5000; ++spin) {
                    if (othersDone.load() == kCells - 1)
                        break;
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                }
            } else {
                ++othersDone;
            }
            return i * 10;
        });
    }

    std::vector<size_t> order;
    std::atomic<bool> inCallback{false};
    size_t othersAtFirst = 0;
    const std::vector<size_t> results =
        runner.runAll([&](size_t idx, const size_t &result) {
            EXPECT_FALSE(inCallback.exchange(true)) << "concurrent";
            if (order.empty())
                othersAtFirst = othersDone.load();
            order.push_back(idx);
            EXPECT_EQ(result, idx * 10);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            inCallback = false;
        });

    ASSERT_EQ(order.size(), kCells);
    for (size_t i = 0; i < kCells; ++i) {
        EXPECT_EQ(order[i], i);
        EXPECT_EQ(results[i], i * 10);
    }
    // Cell 0 really did finish last, so the later cells' results
    // waited for it.
    EXPECT_EQ(othersAtFirst, kCells - 1);
}

TEST(ExperimentRunnerTest, RunAllRethrowsCellException)
{
    for (unsigned jobs : {1u, 4u}) {
        ExperimentRunner<int> runner(jobs);
        std::thread::id cellThread;
        runner.add([&cellThread] {
            cellThread = std::this_thread::get_id();
            return 1;
        });
        runner.add([]() -> int { throw std::runtime_error("cell"); });
        runner.add([] { return 3; });
        std::vector<size_t> seen;
        EXPECT_THROW(runner.runAll([&](size_t i, const int &) {
                         seen.push_back(i);
                     }),
                     std::runtime_error)
            << "jobs " << jobs;
        // Delivery stops at the failed cell.
        EXPECT_EQ(seen, std::vector<size_t>{0}) << "jobs " << jobs;
        // One job runs the cells on the calling thread; more start
        // workers.
        EXPECT_EQ(cellThread == std::this_thread::get_id(), jobs == 1)
            << "jobs " << jobs;
    }
}

/** @p cfg on espresso at kScale, through the Multiscalar memo. */
SimResult
memoRun(const MultiscalarConfig &cfg)
{
    const WorkloadContext &ctx = cachedContext("espresso", kScale);
    return multiscalarMemo().get({"espresso", kScale, cfg},
                                 [&] { return runMultiscalar(ctx, cfg); });
}

/** Multiscalar cells simulated so far in this process. */
size_t
simulated()
{
    return multiscalarMemo().simulated;
}

TEST(CellMemoTest, EveryConfigFieldIsInTheKey)
{
    // A seed no other test uses keeps the base key fresh.
    MultiscalarConfig base = makeMultiscalarConfig(
        cachedContext("espresso", kScale), 4, "esync");
    base.seed = 0x6e30;
    base.preloadEdges = {StaticEdge{0x100, 0x200, 1, 0x300}};

    using Perturb = std::function<void(MultiscalarConfig &)>;
    const std::vector<std::pair<const char *, Perturb>> perturbs = {
        {"numStages", [](auto &c) { c.numStages = 8; }},
        {"ringHopLatency", [](auto &c) { c.ringHopLatency = 2; }},
        {"topology", [](auto &c) { c.topology = Topology::Mesh; }},
        {"meshX", [](auto &c) { c.meshX = 2; }},
        {"meshY", [](auto &c) { c.meshY = 2; }},
        {"squashPenalty", [](auto &c) { ++c.squashPenalty; }},
        {"mispredictPenalty", [](auto &c) { ++c.mispredictPenalty; }},
        {"policyName", [](auto &c) { c.policyName = "sync"; }},
        {"organization",
         [](auto &c) { c.organization = SyncOrganization::Split; }},
        {"taskMispredictRate",
         [](auto &c) { c.taskMispredictRate += 0.01; }},
        {"seed", [](auto &c) { ++c.seed; }},
        {"maxCycles", [](auto &c) { c.maxCycles = uint64_t{1} << 40; }},
        {"logMisSpeculations",
         [](auto &c) { c.logMisSpeculations = !c.logMisSpeculations; }},
        {"preloadEdges size",
         [](auto &c) { c.preloadEdges.push_back(c.preloadEdges[0]); }},
        {"preloadEdges ldpc", [](auto &c) { c.preloadEdges[0].ldpc += 4; }},
        {"preloadEdges stpc", [](auto &c) { c.preloadEdges[0].stpc += 4; }},
        {"preloadEdges dist", [](auto &c) { ++c.preloadEdges[0].dist; }},
        {"preloadEdges storeTaskPc",
         [](auto &c) { c.preloadEdges[0].storeTaskPc += 4; }},
        {"sync.numEntries", [](auto &c) { c.sync.numEntries = 32; }},
        {"sync.slotsPerEntry", [](auto &c) { ++c.sync.slotsPerEntry; }},
        {"sync.mdstEntries", [](auto &c) { c.sync.mdstEntries = 32; }},
        {"sync.counterBits", [](auto &c) { c.sync.counterBits = 4; }},
        {"sync.threshold", [](auto &c) { c.sync.threshold = 2; }},
        {"sync.initialCount", [](auto &c) { c.sync.initialCount = 1; }},
        {"sync.saturateOnMisspec",
         [](auto &c) { c.sync.saturateOnMisspec = true; }},
        {"sync.frontierReleasePenalty",
         [](auto &c) { c.sync.frontierReleasePenalty = 1; }},
        {"sync.predictor",
         [](auto &c) { c.sync.predictor = PredictorKind::AlwaysSync; }},
        {"sync.tags", [](auto &c) { c.sync.tags = TagScheme::Address; }},
        {"sync.numCopies", [](auto &c) { c.sync.numCopies = 4; }},
        {"sync.ssitEntries", [](auto &c) { c.sync.ssitEntries = 512; }},
        {"sync.lfstEntries", [](auto &c) { c.sync.lfstEntries = 64; }},
        {"sync.ssitClearInterval",
         [](auto &c) { c.sync.ssitClearInterval = 0; }},
        {"sync.loadWaitEntries",
         [](auto &c) { c.sync.loadWaitEntries = 512; }},
        {"sync.loadWaitBits", [](auto &c) { c.sync.loadWaitBits = 3; }},
        {"sync.loadWaitThreshold",
         [](auto &c) { c.sync.loadWaitThreshold = 2; }},
        {"sync.loadWaitClearInterval",
         [](auto &c) { c.sync.loadWaitClearInterval = 0; }},
    };

    memoRun(base);
    size_t before = simulated();
    memoRun(base);
    EXPECT_EQ(simulated(), before) << "an identical config is served";

    // Each perturbed config is a new key: it runs once, then is served.
    for (const auto &[field, perturb] : perturbs) {
        MultiscalarConfig cfg = base;
        perturb(cfg);
        before = simulated();
        memoRun(cfg);
        EXPECT_EQ(simulated(), before + 1)
            << field << " is missing from the memo key";
        memoRun(cfg);
        EXPECT_EQ(simulated(), before + 1) << field;
    }

    // The workload and the scale are part of the key too.
    const size_t queued = multiscalarMemo().queued;
    before = simulated();
    for (double scale : {kScale, kScale / 2})
        for (const char *name : {"espresso", "xlisp"})
            multiscalarMemo().get({name, scale, base}, [&] {
                return runMultiscalar(cachedContext(name, scale), base);
            });
    EXPECT_EQ(multiscalarMemo().queued, queued + 4);
    EXPECT_EQ(simulated(), before + 3);
}

TEST(CellMemoTest, CellQueuedByTwoRunnersIsSimulatedOnce)
{
    MultiscalarConfig cfg = makeMultiscalarConfig(
        cachedContext("espresso", kScale), 8, "esync");
    cfg.seed = 0x6e31;
    cfg.logMisSpeculations = true;

    const size_t before = simulated();
    std::vector<SimResult> runs;
    for (int table = 0; table < 2; ++table) {
        ExperimentRunner<SimResult> runner(2);
        runner.add([cfg] { return memoRun(cfg); });
        runs.push_back(runner.runAll()[0]);
    }
    EXPECT_EQ(simulated(), before + 1);
    expectSameResult(runs[0], runs[1]);
}

/** A table whose one cell hits the cycle cap. */
TextTable
cappedTable(ShapeChecks &sc)
{
    MultiscalarConfig cfg = makeMultiscalarConfig(
        cachedContext("espresso", kScale), 4, "always");
    cfg.maxCycles = 50;
    ExperimentRunner<SimResult> runner;
    runner.add([cfg] { return memoRun(cfg); });
    sc.check(runner.runAll()[0].truncated, "the cell hit the cap");
    return TextTable({"capped"});
}

/** A table whose one cell completes. */
TextTable
completeTable(ShapeChecks &sc)
{
    MultiscalarConfig cfg = makeMultiscalarConfig(
        cachedContext("espresso", kScale), 4, "always");
    ExperimentRunner<SimResult> runner;
    runner.add([cfg] { return memoRun(cfg); });
    sc.check(!runner.runAll()[0].truncated, "the cell completed");
    return TextTable({"complete"});
}

TEST(CellMemoTest, TruncatedCellRunsAgainAndFailsEachTable)
{
    const Table capped{"capped", "capped", "memo test", cappedTable};
    const Table complete{"complete", "complete", "memo test",
                         completeTable};
    // As in `mdp_tables all`: each table's verdict covers its own runs
    // only, and the capped cell is never served, so the second capped
    // table fails too (and the driver's status is 1).
    size_t before = simulated();
    EXPECT_EQ(runTable(capped), 1);
    EXPECT_EQ(simulated(), before + 1);
    EXPECT_EQ(runTable(complete), 0);
    before = simulated();
    EXPECT_EQ(runTable(capped), 1);
    EXPECT_EQ(simulated(), before + 1)
        << "a truncated result must run again, not be served";
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
