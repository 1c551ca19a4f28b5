/**
 * @file
 * Packed-lane recycling: a processor built from a LanePool whose
 * buffers still hold a finished run's op state must behave exactly
 * like one built from fresh memory, under every registry policy.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/random.hh"
#include "mdp/dep_policy.hh"
#include "multiscalar/processor.hh"
#include "multiscalar/task_info.hh"
#include "trace/builder.hh"
#include "trace/dep_oracle.hh"

namespace mdp
{
namespace
{

/** Same trace shape as test_fastforward_equiv: aliasing memory
 *  traffic, latency chains, cross-task register dependences. */
Trace
randomTrace(uint64_t seed)
{
    Pcg32 rng(seed);
    TraceBuilder b("soa_equiv");
    const unsigned num_tasks = 6 + rng.below(10);
    std::vector<SeqNum> produced;

    for (unsigned t = 0; t < num_tasks; ++t) {
        b.beginTask(0x1000 + (t % 5) * 0x40);
        const unsigned ops = 6 + rng.below(36);
        for (unsigned i = 0; i < ops; ++i) {
            SeqNum s1 = kNoSeq;
            SeqNum s2 = kNoSeq;
            if (!produced.empty() && rng.below(3) != 0)
                s1 = produced[produced.size() - 1 -
                              rng.below(std::min<uint32_t>(
                                  60, static_cast<uint32_t>(
                                          produced.size())))];
            if (!produced.empty() && rng.below(4) == 0)
                s2 = produced[produced.size() - 1 -
                              rng.below(std::min<uint32_t>(
                                  20, static_cast<uint32_t>(
                                          produced.size())))];

            const uint32_t kind = rng.below(10);
            const Addr addr = 0x8000 + rng.below(24) * 0x40;
            SeqNum s;
            if (kind < 2) {
                s = b.load(0x100 + rng.below(8) * 4, addr, s1);
            } else if (kind < 4) {
                s = b.store(0x200 + rng.below(8) * 4, addr, s1, s2);
                b.lastOp().valueRepeats = rng.below(2) != 0;
            } else if (kind < 5) {
                s = b.op(OpKind::IntDiv, 0x300, s1, s2);
            } else if (kind < 6) {
                s = b.op(OpKind::FpDiv, 0x304, s1, s2);
            } else if (kind < 7) {
                s = b.branch(0x308, s1);
            } else {
                s = b.alu(0x30c + rng.below(4) * 4, s1, s2);
            }
            produced.push_back(s);
        }
    }
    return b.take();
}

void
expectSimEqual(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.cyclesSimulated, b.cyclesSimulated);
    EXPECT_EQ(a.cyclesSkipped, b.cyclesSkipped);
    EXPECT_EQ(a.committedOps, b.committedOps);
    EXPECT_EQ(a.committedLoads, b.committedLoads);
    EXPECT_EQ(a.committedStores, b.committedStores);
    EXPECT_EQ(a.committedTasks, b.committedTasks);
    EXPECT_EQ(a.misSpeculations, b.misSpeculations);
    EXPECT_EQ(a.squashedOps, b.squashedOps);
    EXPECT_EQ(a.controlStalls, b.controlStalls);
    EXPECT_EQ(a.loadsBlockedSync, b.loadsBlockedSync);
    EXPECT_EQ(a.loadsBlockedFrontier, b.loadsBlockedFrontier);
    EXPECT_EQ(a.frontierReleases, b.frontierReleases);
    EXPECT_EQ(a.syncWaitCycles, b.syncWaitCycles);
    EXPECT_EQ(a.signalWaitCycles, b.signalWaitCycles);
    EXPECT_EQ(a.frontierWaitCycles, b.frontierWaitCycles);
    EXPECT_EQ(a.valuePredUses, b.valuePredUses);
    EXPECT_EQ(a.valuePredHits, b.valuePredHits);
    EXPECT_EQ(a.valuePredMisses, b.valuePredMisses);
    EXPECT_EQ(a.pred.nn, b.pred.nn);
    EXPECT_EQ(a.pred.ny, b.pred.ny);
    EXPECT_EQ(a.pred.yn, b.pred.yn);
    EXPECT_EQ(a.pred.yy, b.pred.yy);
    EXPECT_EQ(a.misspecLog, b.misspecLog);
}

TEST(SoaEquiv, LanePoolRecycledBuffersAreClean)
{
    Trace trc = randomTrace(9);
    TraceView view(trc);
    DepOracle oracle(view);
    TaskSet tasks(view);
    for (const std::string &policy : dependencePolicyNames()) {
        SCOPED_TRACE(policy);
        MultiscalarConfig cfg;
        cfg.policyName = policy;

        SimResult fresh;
        {
            MultiscalarProcessor proc(view, oracle, tasks, cfg);
            fresh = proc.run();
        }

        LanePool pool;
        {
            // First run soils the pool's buffers with final op state.
            MultiscalarProcessor proc(view, oracle, tasks, cfg, &pool);
            proc.run();
        }
        EXPECT_GT(pool.cached(), 0u);
        {
            MultiscalarProcessor proc(view, oracle, tasks, cfg, &pool);
            expectSimEqual(fresh, proc.run());
        }
    }
}

} // namespace
} // namespace mdp
