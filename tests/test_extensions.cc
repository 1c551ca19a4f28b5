/**
 * @file
 * Tests for the section-4.4.5 / section-6 extensions: the distributed
 * organization, the value-prediction hybrid, compiler-exposed static
 * edges, and trace serialization.
 */

#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <vector>

#include "harness/runner.hh"
#include "mdp/distributed_sync.hh"
#include "mdp/value_pred.hh"
#include "trace/builder.hh"
#include "trace/serialize.hh"
#include "workloads/suites.hh"

namespace mdp
{
namespace
{

constexpr Addr kLd = 0x500000;
constexpr Addr kSt = 0x600000;
constexpr Addr kA = 0x8000;

SyncUnitConfig
armedConfig()
{
    SyncUnitConfig cfg;
    cfg.numEntries = 8;
    cfg.slotsPerEntry = 4;
    cfg.initialCount = 3;
    return cfg;
}

// --------------------------------------------------------------------
// DistributedSyncUnit
// --------------------------------------------------------------------

TEST(Distributed, MisSpeculationBroadcastsToAllCopies)
{
    DistributedSyncUnit u(armedConfig(), 4);
    u.misSpeculation(kLd, kSt, 1, 0);
    for (unsigned c = 0; c < 4; ++c) {
        EXPECT_EQ(u.copy(c).predictionTable().occupancy(), 1u);
        EXPECT_EQ(u.copy(c).stats().misSpecsRecorded, 1u);
    }
}

TEST(Distributed, LoadUsesItsHomeCopyOnly)
{
    DistributedSyncUnit u(armedConfig(), 4);
    u.misSpeculation(kLd, kSt, 1, 0);
    LoadCheck r = u.loadReady(kLd, kA, /*instance=*/5, 50, nullptr);
    EXPECT_TRUE(r.wait);
    // Instance 5 is homed on copy 1; only that copy holds the wait.
    EXPECT_EQ(u.copy(1).numWaitingLoads(), 1u);
    EXPECT_EQ(u.copy(0).numWaitingLoads(), 0u);
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(u.copy(c).stats().loadChecks, c == 1 ? 1u : 0u);
}

TEST(Distributed, StoreBroadcastReachesTheWaitingCopy)
{
    DistributedSyncUnit u(armedConfig(), 4);
    u.misSpeculation(kLd, kSt, 1, 0);
    u.loadReady(kLd, kA, 5, 50, nullptr);
    std::vector<LoadId> wake;
    // The store's home copy (instance 4 -> copy 0) matches and
    // broadcasts; copy 1 delivers the signal.
    u.storeReady(kSt, kA, 4, 44, wake);
    ASSERT_EQ(wake.size(), 1u);
    EXPECT_EQ(wake[0], 50u);
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(u.copy(c).stats().storeChecks, 1u);
}

TEST(Distributed, EndToEndMatchesCentralizedBehaviour)
{
    WorkloadContext ctx("espresso", 0.01);
    MultiscalarConfig cfg = makeMultiscalarConfig(ctx, 8, "sync");
    SimResult central = runMultiscalar(ctx, cfg);
    cfg.organization = SyncOrganization::Distributed;
    SimResult dist = runMultiscalar(ctx, cfg);
    EXPECT_EQ(dist.committedOps, ctx.trace().size());
    // Same order of magnitude of mis-speculation suppression.
    EXPECT_LT(dist.misSpeculations, central.misSpeculations * 3 + 50);
    // And a real IPC (within 15% of centralized).
    EXPECT_GT(dist.ipc(), central.ipc() * 0.85);
}

TEST(Distributed, StatsAggregateAcrossCopies)
{
    DistributedSyncUnit u(armedConfig(), 2);
    u.misSpeculation(kLd, kSt, 1, 0);
    u.loadReady(kLd, kA, 2, 20, nullptr);
    u.loadReady(kLd, kA, 3, 30, nullptr);
    EXPECT_EQ(u.stats().loadChecks, 2u);
    EXPECT_EQ(u.stats().misSpecsRecorded, 2u);   // one per copy
}

// --------------------------------------------------------------------
// ValuePredictor
// --------------------------------------------------------------------

TEST(ValuePred, ConfidenceBuildsWithRepeats)
{
    ValuePredictor vp(8, 2, 3);
    EXPECT_FALSE(vp.confident(kLd));
    for (int i = 0; i < 3; ++i)
        vp.train(kLd, true);
    EXPECT_TRUE(vp.confident(kLd));
}

TEST(ValuePred, WrongValueResetsConfidence)
{
    ValuePredictor vp(8, 2, 3);
    for (int i = 0; i < 3; ++i)
        vp.train(kLd, true);
    ASSERT_TRUE(vp.confident(kLd));
    vp.train(kLd, false);
    EXPECT_FALSE(vp.confident(kLd));
}

TEST(ValuePred, PoolEvictsLru)
{
    ValuePredictor vp(2, 2, 3);
    for (int i = 0; i < 3; ++i)
        vp.train(0x10, true);
    vp.train(0x20, true);
    vp.train(0x30, true);   // evicts 0x10 or 0x20
    EXPECT_LE(vp.occupancy(), 2u);
}

// --------------------------------------------------------------------
// VSync policy (section-6 hybrid) end to end
// --------------------------------------------------------------------

/** A racy loop whose stores always repeat their value: value
 *  prediction absorbs every would-be violation. */
Trace
repeatingValueLoop(bool repeats)
{
    TraceBuilder b("vloop");
    for (int iter = 0; iter < 80; ++iter) {
        b.beginTask(0x1000);
        b.load(0x400, 0x100);
        for (int i = 0; i < 15; ++i)
            b.alu(0x10 + i * 4);
        b.store(0x300, 0x100);
        b.setLastValueRepeats(repeats);
        for (int i = 0; i < 4; ++i)
            b.alu(0x50 + i * 4);
    }
    return b.take();
}

TEST(VSync, AbsorbsViolationsWhenValuesRepeat)
{
    WorkloadContext ctx{repeatingValueLoop(true)};
    SimResult esync = runMultiscalar(
        ctx, makeMultiscalarConfig(ctx, 8, "esync"));
    SimResult vsync = runMultiscalar(
        ctx, makeMultiscalarConfig(ctx, 8, "vsync"));
    EXPECT_EQ(vsync.committedOps, ctx.trace().size());
    EXPECT_GT(vsync.valuePredUses, 10u);
    EXPECT_GT(vsync.valuePredHits, 10u);
    EXPECT_EQ(vsync.valuePredMisses, 0u);
    // No waiting on the dependence at all: at least as fast as ESYNC.
    EXPECT_GE(vsync.ipc(), esync.ipc() * 0.98);
}

TEST(VSync, FallsBackWhenValuesDoNotRepeat)
{
    WorkloadContext ctx{repeatingValueLoop(false)};
    SimResult vsync = runMultiscalar(
        ctx, makeMultiscalarConfig(ctx, 8, "vsync"));
    EXPECT_EQ(vsync.committedOps, ctx.trace().size());
    // Confidence never builds: the hybrid degenerates to ESYNC.
    EXPECT_EQ(vsync.valuePredHits, 0u);
    EXPECT_LT(vsync.valuePredUses, 5u);
}

// --------------------------------------------------------------------
// Compiler-exposed static edges (section 6)
// --------------------------------------------------------------------

TEST(StaticEdges, AnalyzerFindsRecurringEdges)
{
    WorkloadContext ctx("espresso", 0.01);
    auto edges = analyzeStaticEdges(ctx, 8);
    EXPECT_GE(edges.size(), 3u);   // the profile's recurrence edges
    for (const auto &e : edges) {
        EXPECT_NE(e.ldpc, 0u);
        EXPECT_NE(e.stpc, 0u);
        EXPECT_GE(e.dist, 1u);
    }
}

TEST(StaticEdges, PreloadEliminatesTrainingMisspecs)
{
    WorkloadContext ctx("espresso", 0.01);
    MultiscalarConfig cfg = makeMultiscalarConfig(ctx, 8, "esync");
    SimResult cold = runMultiscalar(ctx, cfg);
    cfg.preloadEdges = analyzeStaticEdges(ctx, 8);
    SimResult warm = runMultiscalar(ctx, cfg);
    EXPECT_EQ(warm.committedOps, ctx.trace().size());
    EXPECT_LE(warm.misSpeculations, cold.misSpeculations);
}

// --------------------------------------------------------------------
// Trace serialization
// --------------------------------------------------------------------

TEST(Serialize, RoundTripPreservesEverything)
{
    Trace orig = findWorkload("xlisp").generate(0.003);
    std::stringstream ss;
    ASSERT_TRUE(writeTrace(orig, ss));

    std::string error;
    Trace back = readTrace(ss, error);
    ASSERT_EQ(error, "");
    ASSERT_EQ(back.size(), orig.size());
    EXPECT_EQ(back.traceName(), orig.traceName());
    for (SeqNum s = 0; s < orig.size(); ++s) {
        EXPECT_EQ(back[s].pc, orig[s].pc);
        EXPECT_EQ(back[s].addr, orig[s].addr);
        EXPECT_EQ(back[s].src1, orig[s].src1);
        EXPECT_EQ(back[s].src2, orig[s].src2);
        EXPECT_EQ(back[s].taskId, orig[s].taskId);
        EXPECT_EQ(back[s].taskPc, orig[s].taskPc);
        EXPECT_EQ(back[s].kind, orig[s].kind);
        EXPECT_EQ(back[s].valueRepeats, orig[s].valueRepeats);
    }
    const std::span<const Addr> want = TraceView(orig).taskPcs();
    const std::span<const Addr> got = TraceView(back).taskPcs();
    EXPECT_EQ(std::vector<Addr>(got.begin(), got.end()),
              std::vector<Addr>(want.begin(), want.end()));
}

TEST(Serialize, RejectsGarbage)
{
    std::stringstream ss("this is not a trace file at all");
    std::string error;
    Trace t = readTrace(ss, error);
    EXPECT_TRUE(t.empty());
    EXPECT_NE(error, "");
}

TEST(Serialize, RejectsTruncatedStream)
{
    Trace orig = findWorkload("xlisp").generate(0.001);
    std::stringstream ss;
    ASSERT_TRUE(writeTrace(orig, ss));
    std::string full = ss.str();
    std::stringstream cut(full.substr(0, full.size() / 2));
    std::string error;
    Trace t = readTrace(cut, error);
    EXPECT_TRUE(t.empty());
    EXPECT_NE(error, "");
}

TEST(Serialize, FileRoundTrip)
{
    Trace orig = findWorkload("compress").generate(0.001);
    std::string path = testing::TempDir() + "/mdp_trace_test.bin";
    ASSERT_TRUE(saveTrace(orig, path));
    std::string error;
    Trace back = loadTrace(path, error);
    EXPECT_EQ(error, "");
    EXPECT_EQ(back.size(), orig.size());
    std::remove(path.c_str());
}

TEST(Serialize, LoadedTraceRunsIdentically)
{
    Trace orig = findWorkload("sc").generate(0.003);
    std::stringstream ss;
    ASSERT_TRUE(writeTrace(orig, ss));
    std::string error;
    Trace back = readTrace(ss, error);
    ASSERT_EQ(error, "");

    WorkloadContext a{std::move(orig)};
    WorkloadContext b{std::move(back)};
    SimResult ra =
        runMultiscalar(a, makeMultiscalarConfig(a, 4, "sync"));
    SimResult rb =
        runMultiscalar(b, makeMultiscalarConfig(b, 4, "sync"));
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.misSpeculations, rb.misSpeculations);
}

} // namespace
} // namespace mdp
