/**
 * @file
 * Unit tests for the trace substrate: MicroOp, Trace, TraceBuilder and
 * the per-trace analyses over it, the dependence oracle and TaskSet.
 */

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <unordered_map>

#include "base/random.hh"
#include "multiscalar/task_info.hh"
#include "trace/builder.hh"
#include "trace/dep_oracle.hh"
#include "trace/trace.hh"

namespace mdp
{
namespace
{

TEST(MicroOp, Kinds)
{
    MicroOp op;
    op.kind = OpKind::Load;
    EXPECT_TRUE(op.isLoad());
    EXPECT_TRUE(op.isMemOp());
    EXPECT_FALSE(op.isStore());
    op.kind = OpKind::Store;
    EXPECT_TRUE(op.isStore());
    EXPECT_TRUE(op.isMemOp());
    op.kind = OpKind::IntAlu;
    EXPECT_FALSE(op.isMemOp());
}

TEST(MicroOp, LatenciesMatchTable2)
{
    EXPECT_EQ(opLatency(OpKind::IntAlu), 1u);
    EXPECT_EQ(opLatency(OpKind::IntMul), 4u);
    EXPECT_EQ(opLatency(OpKind::IntDiv), 12u);
    EXPECT_EQ(opLatency(OpKind::FpAdd), 2u);
    EXPECT_EQ(opLatency(OpKind::FpMul), 4u);
    EXPECT_EQ(opLatency(OpKind::FpDiv), 18u);
    EXPECT_EQ(opLatency(OpKind::Branch), 1u);
}

TEST(Trace, AppendAndIndex)
{
    Trace t("t");
    MicroOp op;
    op.pc = 0x100;
    SeqNum s = t.append(op);
    EXPECT_EQ(s, 0u);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].pc, 0x100u);
    EXPECT_EQ(t.traceName(), "t");
}

TEST(Trace, TaskPcsHoldOnePcPerTask)
{
    TraceBuilder b("x");
    b.beginTask(0x1000);
    b.alu(0x10);
    b.alu(0x14);
    b.beginTask(0x2000);
    b.alu(0x18);
    const Trace t = b.take();
    const TraceView v(t);
    EXPECT_EQ(std::vector<Addr>(v.taskPcs().begin(), v.taskPcs().end()),
              (std::vector<Addr>{0x1000, 0x2000}));
}

TEST(TraceDeath, AppendRejectsTaskPcChangeInsideTask)
{
    Trace t("forged");
    MicroOp op;
    op.taskPc = 0x1000;
    t.append(op);
    op.taskPc = 0x2000;
    EXPECT_DEATH(t.append(op), "taskPc changes inside task 0 at seq 1");
}

TEST(Trace, EmptyTrace)
{
    Trace t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.numTasks(), 0u);
    EXPECT_EQ(t.stats().numOps, 0u);
    EXPECT_EQ(t.validate(), "");
}

TEST(TraceBuilder, BuildsTasksAndOps)
{
    TraceBuilder b("x");
    b.beginTask(0x1000);
    SeqNum a = b.alu(0x10);
    SeqNum l = b.load(0x14, 0x8000, a);
    b.beginTask(0x2000);
    SeqNum s = b.store(0x18, 0x8000, kNoSeq, l);
    b.branch(0x1c, s);
    Trace t = b.take();

    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t.numTasks(), 2u);
    EXPECT_EQ(t[0].taskId, 0u);
    EXPECT_EQ(t[1].taskId, 0u);
    EXPECT_EQ(t[2].taskId, 1u);
    EXPECT_EQ(t[0].taskPc, 0x1000u);
    EXPECT_EQ(t[2].taskPc, 0x2000u);
    EXPECT_EQ(t[1].src1, a);
    EXPECT_EQ(t[2].src2, l);
    EXPECT_EQ(t.validate(), "");
}

TEST(Trace, TaskBoundaries)
{
    TraceBuilder b("x");
    b.beginTask(1);
    b.alu(1);
    b.alu(2);
    b.beginTask(2);
    b.alu(3);
    Trace t = b.take();
    auto bounds = t.taskBoundaries();
    ASSERT_EQ(bounds.size(), 3u);
    EXPECT_EQ(bounds[0], 0u);
    EXPECT_EQ(bounds[1], 2u);
    EXPECT_EQ(bounds[2], 3u);
}

TEST(Trace, StatsCountKinds)
{
    TraceBuilder b("x");
    b.beginTask(1);
    b.alu(1);
    b.load(2, 0x10);
    b.store(3, 0x18);
    b.branch(4);
    b.beginTask(2);
    b.alu(5);
    Trace t = b.take();
    TraceStats st = t.stats();
    EXPECT_EQ(st.numOps, 5u);
    EXPECT_EQ(st.numLoads, 1u);
    EXPECT_EQ(st.numStores, 1u);
    EXPECT_EQ(st.numBranches, 1u);
    EXPECT_EQ(st.numTasks, 2u);
    EXPECT_EQ(st.maxTaskSize, 4u);
    EXPECT_DOUBLE_EQ(st.avgTaskSize, 2.5);
}

TEST(Trace, ValidateCatchesForwardSrc)
{
    Trace t;
    MicroOp op;
    op.taskId = 0;
    op.src1 = 0;   // self/forward reference
    t.append(op);
    EXPECT_NE(t.validate(), "");
}

TEST(Trace, ValidateCatchesNonContiguousTasks)
{
    Trace t;
    MicroOp a;
    a.taskId = 0;
    t.append(a);
    MicroOp b;
    b.taskId = 2;  // skipped task 1
    t.append(b);
    EXPECT_NE(t.validate(), "");
}

TEST(Trace, ValidateCatchesNullAddress)
{
    Trace t;
    MicroOp op;
    op.taskId = 0;
    op.kind = OpKind::Load;
    op.addr = 0;
    t.append(op);
    EXPECT_NE(t.validate(), "");
}

TEST(Trace, ValidateCatchesFirstTaskNonZero)
{
    Trace t;
    MicroOp op;
    op.taskId = 1;
    t.append(op);
    EXPECT_NE(t.validate(), "");
}

TEST(Trace, ValidateReportsTheLowestFailingSeq)
{
    // Ten ALU ops in task 0 with violations in two columns: a null
    // load address at seq 7 and a forward source at @p src_seq.  Each
    // rule is checked in its own pass; the report must still name the
    // lowest failing seq, not the rule checked first.
    auto twoBadOps = [](SeqNum src_seq, bool src1) {
        Trace t;
        for (SeqNum s = 0; s < 10; ++s) {
            MicroOp op;
            if (s == 7) {
                op.kind = OpKind::Load;
                op.addr = 0;
            }
            if (s == src_seq)
                (src1 ? op.src1 : op.src2) = s;
            t.append(op);
        }
        return t.validate();
    };
    EXPECT_EQ(twoBadOps(4, true), "src1 does not precede consumer at seq 4");
    EXPECT_EQ(twoBadOps(9, false), "memory op with null address at seq 7");
}

TEST(Trace, ValidateBreaksTiesInRuleOrder)
{
    // One op violating every rule after task 0: a skipped task, a
    // forward src1 and src2, and a null store address.  The task rule
    // is reported; with the task fixed, src1; and so on down.
    auto oneBadOp = [](uint32_t task, SeqNum src1, SeqNum src2) {
        Trace t;
        t.append(MicroOp{});
        MicroOp op;
        op.kind = OpKind::Store;
        op.taskId = task;
        op.src1 = src1;
        op.src2 = src2;
        t.append(op);
        return t.validate();
    };
    EXPECT_EQ(oneBadOp(2, 1, 1), "task ids must be contiguous at seq 1");
    EXPECT_EQ(oneBadOp(1, 1, 1), "src1 does not precede consumer at seq 1");
    EXPECT_EQ(oneBadOp(1, 0, 1), "src2 does not precede consumer at seq 1");
    EXPECT_EQ(oneBadOp(1, 0, kNoSeq),
              "memory op with null address at seq 1");
}

// --------------------------------------------------------------------
// DepOracle
// --------------------------------------------------------------------

TEST(DepOracle, FindsMostRecentProducer)
{
    TraceBuilder b("x");
    b.beginTask(1);
    SeqNum s1 = b.store(1, 0x100);
    SeqNum s2 = b.store(2, 0x100);
    SeqNum l = b.load(3, 0x100);
    Trace t = b.take();
    DepOracle o(t);
    EXPECT_TRUE(o.hasProducer(l));
    EXPECT_EQ(o.producer(l), s2);
    EXPECT_NE(o.producer(l), s1);
}

TEST(DepOracle, NoProducerForUnwrittenAddress)
{
    TraceBuilder b("x");
    b.beginTask(1);
    b.store(1, 0x100);
    SeqNum l = b.load(2, 0x200);
    Trace t = b.take();
    DepOracle o(t);
    EXPECT_FALSE(o.hasProducer(l));
    EXPECT_EQ(o.producer(l), kNoSeq);
}

TEST(DepOracle, LaterStoreDoesNotProduce)
{
    TraceBuilder b("x");
    b.beginTask(1);
    SeqNum l = b.load(1, 0x100);
    b.store(2, 0x100);
    Trace t = b.take();
    DepOracle o(t);
    EXPECT_FALSE(o.hasProducer(l));
}

TEST(DepOracle, ProducerWithinWindow)
{
    TraceBuilder b("x");
    b.beginTask(1);
    SeqNum s = b.store(1, 0x100);
    for (int i = 0; i < 10; ++i)
        b.alu(2);
    SeqNum l = b.load(3, 0x100);
    Trace t = b.take();
    DepOracle o(t);
    // Distance is 11 dynamic instructions.
    EXPECT_EQ(l - s, 11u);
    EXPECT_FALSE(o.producerWithin(l, 11));
    EXPECT_TRUE(o.producerWithin(l, 12));
}

TEST(DepOracle, InterTaskAndDistance)
{
    TraceBuilder b("x");
    b.beginTask(1);
    SeqNum intra_st = b.store(1, 0x200);
    SeqNum intra_ld = b.load(2, 0x200);
    b.store(3, 0x100);
    b.beginTask(2);
    b.alu(4);
    b.beginTask(3);
    SeqNum inter_ld = b.load(5, 0x100);
    Trace t = b.take();
    DepOracle o(t);
    EXPECT_FALSE(o.interTask(intra_ld));
    EXPECT_EQ(o.taskDistance(intra_ld), 0u);
    EXPECT_EQ(o.producer(intra_ld), intra_st);
    EXPECT_TRUE(o.interTask(inter_ld));
    EXPECT_EQ(o.taskDistance(inter_ld), 2u);
}

TEST(DepOracle, LoadAndStoreLists)
{
    TraceBuilder b("x");
    b.beginTask(1);
    b.load(1, 0x10);
    b.store(2, 0x18);
    b.load(3, 0x20);
    Trace t = b.take();
    DepOracle o(t);
    EXPECT_EQ(o.loads().size(), 2u);
    EXPECT_EQ(o.stores().size(), 1u);
    EXPECT_EQ(o.loads()[0], 0u);
    EXPECT_EQ(o.loads()[1], 2u);
    EXPECT_EQ(o.stores()[0], 1u);
}

/**
 * A valid random trace of @p n ops over a few addresses: every kind,
 * tasks of random length, each with one random task PC, and sources
 * that precede their consumers.
 */
Trace
randomTrace(Pcg32 &rng, size_t n)
{
    Trace t("random");
    uint32_t task = 0;
    Addr task_pc = 0x8000 + rng.below(8) * 0x40;
    for (size_t s = 0; s < n; ++s) {
        if (s != 0 && rng.chance(0.08)) {
            ++task;
            task_pc = 0x8000 + rng.below(8) * 0x40;
        }
        MicroOp op;
        const uint32_t pick = rng.below(10);
        op.kind = pick < 3   ? OpKind::Load
                  : pick < 5 ? OpKind::Store
                  : pick < 6 ? OpKind::Branch
                             : OpKind::IntAlu;
        op.pc = 0x1000 + rng.below(32) * 4;
        op.taskId = task;
        op.taskPc = task_pc;
        if (isMem(op.kind))
            op.addr = 0x100 + rng.below(12) * 8;
        if (s != 0 && rng.chance(0.5))
            op.src1 = rng.below(static_cast<uint32_t>(s));
        t.append(op);
    }
    EXPECT_EQ(t.validate(), "");
    return t;
}

/** The sizes around the oracle's 64-op rank words, then random ones. */
std::vector<size_t>
oracleTraceSizes(Pcg32 &rng)
{
    std::vector<size_t> sizes = {0, 1, 63, 64, 65, 127, 128, 129};
    for (int i = 0; i < 24; ++i)
        sizes.push_back(1 + rng.below(1500));
    return sizes;
}

/** Property: every query, at every seq including non-loads, agrees
 *  with a naive map-based last-writer walk on random traces. */
TEST(DepOracle, MatchesBruteForceOnRandomTraces)
{
    Pcg32 rng(2024);
    for (size_t n : oracleTraceSizes(rng)) {
        SCOPED_TRACE(n);
        const Trace t = randomTrace(rng, n);
        const DepOracle o(t);

        std::map<Addr, SeqNum> last_writer;
        std::vector<SeqNum> loads, stores, producers;
        for (SeqNum s = 0; s < n; ++s) {
            const MicroOp op = t[s];
            SeqNum expect = kNoSeq;
            if (op.isLoad()) {
                auto it = last_writer.find(op.addr);
                if (it != last_writer.end())
                    expect = it->second;
                loads.push_back(s);
                producers.push_back(expect);
            } else if (op.isStore()) {
                last_writer[op.addr] = s;
                stores.push_back(s);
            }
            ASSERT_EQ(o.producer(s), expect) << "seq " << s;
            EXPECT_EQ(o.hasProducer(s), expect != kNoSeq);
            for (uint32_t w : {1u, 2u, 7u, 64u, 100000u})
                EXPECT_EQ(o.producerWithin(s, w),
                          expect != kNoSeq && s - expect < w);
            const bool inter =
                expect != kNoSeq && t[expect].taskId != op.taskId;
            EXPECT_EQ(o.interTask(s), inter);
            EXPECT_EQ(o.taskDistance(s),
                      expect == kNoSeq ? 0u : op.taskId - t[expect].taskId);
        }
        EXPECT_EQ(o.loads(), loads);
        EXPECT_EQ(o.stores(), stores);
        EXPECT_EQ(o.producers(), producers);
    }
}

// --------------------------------------------------------------------
// TaskSet
// --------------------------------------------------------------------

/** Property: each task's runs of the oracle's lists are exactly the
 *  task's loads and stores, filtered from the trace. */
TEST(TaskSet, SpansEqualPerTaskFilter)
{
    Pcg32 rng(99);
    for (size_t n : oracleTraceSizes(rng)) {
        SCOPED_TRACE(n);
        const Trace t = randomTrace(rng, n);
        const DepOracle o(t);
        const TaskSet ts(t);
        ASSERT_EQ(ts.numTasks(), t.numTasks());
        EXPECT_EQ(ts.loadOffset(ts.numTasks()), o.loads().size());
        EXPECT_EQ(ts.storeOffset(ts.numTasks()), o.stores().size());
        SeqNum next = 0;
        for (uint32_t task = 0; task < ts.numTasks(); ++task) {
            ASSERT_EQ(ts.taskStart(task), next);
            std::vector<SeqNum> loads, stores;
            for (SeqNum s = next; s < n && t[s].taskId == task; ++s) {
                if (t[s].isLoad())
                    loads.push_back(s);
                else if (t[s].isStore())
                    stores.push_back(s);
                next = s + 1;
            }
            EXPECT_EQ(ts.taskEnd(task), next);
            EXPECT_EQ(ts.taskSize(task), next - ts.taskStart(task));
            EXPECT_EQ(ts.taskPc(task), t[ts.taskStart(task)].taskPc);
            const std::span<const SeqNum> all_loads(o.loads());
            const std::span<const SeqNum> all_stores(o.stores());
            const auto task_loads = all_loads.subspan(
                ts.loadOffset(task),
                ts.loadOffset(task + 1) - ts.loadOffset(task));
            const auto task_stores = all_stores.subspan(
                ts.storeOffset(task),
                ts.storeOffset(task + 1) - ts.storeOffset(task));
            EXPECT_EQ(std::vector<SeqNum>(task_loads.begin(),
                                          task_loads.end()),
                      loads);
            EXPECT_EQ(std::vector<SeqNum>(task_stores.begin(),
                                          task_stores.end()),
                      stores);
        }
        EXPECT_EQ(next, n);
    }
}

/** A trace of one ALU op per listed task id, unvalidated; each op's
 *  task PC is 0x100 plus its id. */
Trace
taskIdTrace(std::initializer_list<uint32_t> ids)
{
    Trace t("forged");
    for (uint32_t id : ids) {
        MicroOp op;
        op.kind = OpKind::IntAlu;
        op.taskId = id;
        op.taskPc = 0x100 + id;
        t.append(op);
    }
    return t;
}

TEST(Trace, GatherStaysInTheTaskTableOnForgedIds)
{
    // {0, 3} has two runs, so two task PCs, but names task 3; {1, 1}
    // has one PC and names task 1.  The gather reads 0 past the table,
    // where an in-range id would read 0x100 plus the id.
    const Trace gap = taskIdTrace({0, 3});
    ASSERT_EQ(TraceView(gap).taskPcs().size(), 2u);
    EXPECT_EQ(gap[0].taskPc, 0x100u);
    EXPECT_EQ(gap[1].taskId, 3u);
    EXPECT_EQ(gap[1].taskPc, 0u);
    const Trace late = taskIdTrace({1, 1});
    ASSERT_EQ(TraceView(late).taskPcs().size(), 1u);
    EXPECT_EQ(late[0].taskPc, 0u);
}

TEST(TaskSetDeath, TaskIdGapFailsFast)
{
    // numTasks() reads the last id (4 tasks) while the runs of equal
    // ids give two bounds; the gap must not reach the task-PC loop.
    const Trace t = taskIdTrace({0, 3});
    EXPECT_EXIT(TaskSet{t}, testing::ExitedWithCode(1),
                "task ids must be contiguous from 0 at seq 1");
}

TEST(TaskSetDeath, TaskIdGoingBackFailsFast)
{
    // Three runs but numTasks() == 1: without the check one task of
    // one op would commit and the rest of the trace vanish.
    const Trace t = taskIdTrace({0, 1, 0});
    EXPECT_EXIT(TaskSet{t}, testing::ExitedWithCode(1),
                "task ids must be contiguous from 0 at seq 2");
}

TEST(TaskSetDeath, FirstTaskNotZeroFailsFast)
{
    const Trace t = taskIdTrace({1, 1});
    EXPECT_EXIT(TaskSet{t}, testing::ExitedWithCode(1),
                "task ids must be contiguous from 0 at seq 0");
}

} // namespace
} // namespace mdp
