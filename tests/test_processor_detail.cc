/**
 * @file
 * Fine-grained Multiscalar timing-model tests: exact-expectation
 * scenarios for issue constraints, ring latency, squash granularity,
 * the sequencer, and the memory-ordering disciplines.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "multiscalar/processor.hh"
#include "trace/builder.hh"
#include "window/window_model.hh"
#include "workloads/suites.hh"

namespace mdp
{
namespace
{

SimResult
run(Trace t, MultiscalarConfig cfg)
{
    WorkloadContext ctx{std::move(t)};
    cfg.taskMispredictRate = 0.0;
    return runMultiscalar(ctx, cfg);
}

MultiscalarConfig
baseCfg(unsigned stages = 4, const std::string &pol = "always")
{
    MultiscalarConfig cfg;
    cfg.numStages = stages;
    cfg.policyName = pol;
    return cfg;
}

// --------------------------------------------------------------------
// Issue constraints
// --------------------------------------------------------------------

TEST(ProcDetail, IssueWidthBoundsThroughput)
{
    // 100 independent ALU ops in one task: at 2-wide issue the task
    // needs >= 50 cycles.
    TraceBuilder b("alu");
    b.beginTask(1);
    for (int i = 0; i < 100; ++i)
        b.alu(0x10 + i * 4);
    SimResult r = run(b.take(), baseCfg());
    EXPECT_GE(r.cycles, 50u);
    EXPECT_LE(r.cycles, 70u);   // plus fetch/commit overheads
}

TEST(ProcDetail, MemPortSerializesLoads)
{
    // 40 independent loads in one task with one memory port: >= 40
    // cycles even though issue width is 2.
    TraceBuilder b("mem");
    b.beginTask(1);
    for (int i = 0; i < 40; ++i)
        b.load(0x10 + i * 4, 0x9000 + i * 8);
    SimResult r = run(b.take(), baseCfg());
    EXPECT_GE(r.cycles, 40u);
}

TEST(ProcDetail, FpUnitSerializesFp)
{
    // One FP unit per stage: 20 FP adds take >= 20 cycles; mixed with
    // ALU work they overlap.
    TraceBuilder b("fp");
    b.beginTask(1);
    for (int i = 0; i < 20; ++i)
        b.op(OpKind::FpAdd, 0x10 + i * 4);
    SimResult r = run(b.take(), baseCfg());
    EXPECT_GE(r.cycles, 20u);
}

TEST(ProcDetail, DependenceChainsSerialize)
{
    // A 60-op dependence chain runs at <= 1 IPC regardless of width.
    TraceBuilder b("chain");
    b.beginTask(1);
    SeqNum prev = b.alu(0x10);
    for (int i = 1; i < 60; ++i)
        prev = b.alu(0x10 + i * 4, prev);
    SimResult r = run(b.take(), baseCfg());
    EXPECT_GE(r.cycles, 60u);
}

TEST(ProcDetail, LongLatencyOpsBlockDependents)
{
    // alu -> intdiv (12 cycles) -> dependent alu.
    TraceBuilder b("div");
    b.beginTask(1);
    SeqNum a = b.alu(0x10);
    SeqNum d = b.op(OpKind::IntDiv, 0x14, a);
    b.alu(0x18, d);
    SimResult r = run(b.take(), baseCfg());
    EXPECT_GE(r.cycles, 1u + 1 + 12 + 1);
}

// --------------------------------------------------------------------
// Ring latency between tasks
// --------------------------------------------------------------------

TEST(ProcDetail, RingLatencyDelaysCrossTaskConsumers)
{
    // Producer in task 0, consumer chains in task 3: the consumer pays
    // 3 ring hops on top of the producer's completion.
    TraceBuilder b("ring");
    b.beginTask(1);
    SeqNum p = b.alu(0x10);
    b.beginTask(2);
    b.alu(0x20);
    b.beginTask(3);
    b.alu(0x30);
    b.beginTask(4);
    b.alu(0x40, p);
    Trace t = b.take();

    MultiscalarConfig slow = baseCfg(4);
    slow.ringHopLatency = 20;
    MultiscalarConfig fast = baseCfg(4);
    fast.ringHopLatency = 1;
    uint64_t slow_cycles = run(Trace(t), slow).cycles;
    uint64_t fast_cycles = run(Trace(t), fast).cycles;
    EXPECT_GT(slow_cycles, fast_cycles + 40);
}

// --------------------------------------------------------------------
// Memory-ordering disciplines
// --------------------------------------------------------------------

TEST(ProcDetail, IntraTaskLoadWaitsForEarlierStore)
{
    // Same-task store (long addr chain) before a load to the same
    // address: the load must observe it, so no violation can occur
    // even under blind speculation.
    TraceBuilder b("intra");
    b.beginTask(1);
    SeqNum c = b.alu(0x10);
    for (int i = 0; i < 5; ++i)
        c = b.op(OpKind::IntDiv, 0x14 + i * 4, c);
    b.store(0x300, 0x100, c);
    b.load(0x400, 0x100);
    SimResult r = run(b.take(), baseCfg());
    EXPECT_EQ(r.misSpeculations, 0u);
    // The chain is ~60 cycles; the load finished after it.
    EXPECT_GE(r.cycles, 60u);
}

TEST(ProcDetail, SquashKeepsOlderWorkInTheTask)
{
    // A violating load late in its task: ops before it must not be
    // re-executed (squashedOps counts only issued work at/after it).
    TraceBuilder b("partial");
    b.beginTask(1);
    for (int i = 0; i < 30; ++i)
        b.alu(0x10 + i * 4);
    b.store(0x300, 0x100);
    b.beginTask(2);
    for (int i = 0; i < 20; ++i)
        b.alu(0x50 + i * 4);
    b.load(0x400, 0x100);   // violates (store is late in task 0)
    b.alu(0x98);
    Trace t = b.take();
    SimResult r = run(std::move(t), baseCfg(2));
    EXPECT_EQ(r.misSpeculations, 1u);
    // Only the load and the op after it could be squashed, not the 20
    // older ALU ops of task 1.
    EXPECT_LE(r.squashedOps, 5u);
}

TEST(ProcDetail, NeverPolicyOrdersAllStoresFirst)
{
    // Under NEVER a load in task 1 cannot issue before the very last
    // store of task 0 has executed.
    TraceBuilder b("never");
    b.beginTask(1);
    SeqNum c = b.alu(0x10);
    for (int i = 0; i < 8; ++i)
        c = b.op(OpKind::IntDiv, 0x20 + i * 4, c);   // ~96 cycles
    b.store(0x300, 0x200, c);
    b.beginTask(2);
    b.load(0x400, 0x999);   // unrelated address
    Trace t = b.take();
    SimResult always = run(Trace(t), baseCfg(2, "always"));
    SimResult never = run(Trace(t), baseCfg(2, "never"));
    EXPECT_GT(never.cycles, always.cycles);
    EXPECT_EQ(never.loadsBlockedFrontier, 1u);
}

// --------------------------------------------------------------------
// Sequencer
// --------------------------------------------------------------------

TEST(ProcDetail, RingSlotReuseSerializesBeyondStageCount)
{
    // 8 single-op tasks on 2 stages: tasks 2..7 wait for their ring
    // slot; the run takes longer than with 8 stages.
    TraceBuilder b("slots");
    for (int t = 0; t < 8; ++t) {
        b.beginTask(1 + t);
        for (int i = 0; i < 10; ++i)
            b.alu(0x10 + i * 4);
    }
    Trace t = b.take();
    uint64_t narrow = run(Trace(t), baseCfg(2)).cycles;
    uint64_t wide = run(Trace(t), baseCfg(8)).cycles;
    EXPECT_GT(narrow, wide);
}

TEST(ProcDetail, MispredictPenaltyScales)
{
    const Workload &w = findWorkload("espresso");
    Trace t = w.generate(0.005);
    WorkloadContext ctx{std::move(t)};
    MultiscalarConfig cfg = makeMultiscalarConfig(ctx, 4, "always");
    cfg.taskMispredictRate = 0.1;
    cfg.mispredictPenalty = 1;
    uint64_t cheap = runMultiscalar(ctx, cfg).cycles;
    cfg.mispredictPenalty = 50;
    uint64_t dear = runMultiscalar(ctx, cfg).cycles;
    EXPECT_GT(dear, cheap);
}

// --------------------------------------------------------------------
// ESYNC path check end to end
// --------------------------------------------------------------------

TEST(ProcDetail, EsyncSkipsOffPathDependences)
{
    // The compress pattern: every task writes the location, but the
    // static store differs by control path (hash-hit vs hash-miss
    // code), so the load has two static dependences of which exactly
    // one is live per instance.  SYNC waits on both edges and half its
    // waits never get a signal; ESYNC's task-PC check selects the
    // right edge.
    TraceBuilder b("path");
    for (int iter = 0; iter < 200; ++iter) {
        bool type_a = iter % 2 == 0;
        b.beginTask(type_a ? 0xA000 : 0xB000);
        b.load(0x400, 0x100);
        for (int i = 0; i < 12; ++i)
            b.alu(0x10 + i * 4);
        b.store(type_a ? 0x300 : 0x304, 0x100);
        for (int i = 0; i < 4; ++i)
            b.alu(0x60 + i * 4);
    }
    Trace t = b.take();
    WorkloadContext ctx{std::move(t)};
    SimResult sync = runMultiscalar(
        ctx, makeMultiscalarConfig(ctx, 8, "sync"));
    SimResult esync = runMultiscalar(
        ctx, makeMultiscalarConfig(ctx, 8, "esync"));
    // SYNC imposes waits after every type-B predecessor (the signal
    // never comes); ESYNC filters them via the recorded task PC.
    EXPECT_LT(esync.frontierReleases, sync.frontierReleases);
    EXPECT_GE(esync.ipc(), sync.ipc());
}

// --------------------------------------------------------------------
// Dependence-distance histogram (window model)
// --------------------------------------------------------------------

TEST(ProcDetail, DistanceHistogramMatchesConstruction)
{
    TraceBuilder b("dist");
    b.beginTask(1);
    b.store(1, 0x100);
    b.alu(2);
    b.alu(3);
    b.load(4, 0x100);        // distance 3
    b.store(5, 0x200);
    b.load(6, 0x200);        // distance 1
    Trace t = b.take();
    DepOracle o(t);
    WindowModel wm(t, o);
    Histogram h = wm.distanceHistogram(16);
    EXPECT_EQ(h.samples(), 2u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
}

} // namespace
} // namespace mdp
