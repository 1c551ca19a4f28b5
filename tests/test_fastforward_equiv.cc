/**
 * @file
 * The timing models' cycle cap (deadlock guard), asserted on capped
 * runs, and the window model's determinism.
 *
 * Both cycle loops jump over idle cycles to the next time-gated event,
 * clamped to the cap + 1.  A capped run must therefore stop exactly
 * one cycle past the cap with a partial result -- fewer ops or tasks
 * committed than the trace holds -- and still account every cycle as
 * either simulated or skipped.  A cap the run never reaches must leave
 * the result untouched.
 *
 * The window model has no cycle loop (it is analytical), so its
 * obligation is plain determinism, asserted here for completeness.
 */

#include <gtest/gtest.h>

#include "base/random.hh"
#include "multiscalar/processor.hh"
#include "multiscalar/task_info.hh"
#include "ooo/ooo_model.hh"
#include "trace/builder.hh"
#include "trace/dep_oracle.hh"
#include "window/window_model.hh"

namespace mdp
{
namespace
{

/**
 * A random mix of tasks with aliasing memory traffic (to provoke
 * violations, synchronization and frontier waits), serial latency
 * chains (to create idle stretches worth skipping) and cross-task
 * register dependences (to exercise the ring-hop readiness events).
 */
Trace
randomTrace(uint64_t seed)
{
    Pcg32 rng(seed);
    TraceBuilder b("ff_equiv");
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
                b.setLastValueRepeats(rng.below(2) != 0);
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

// --------------------------------------------------------------------
// OoO model
// --------------------------------------------------------------------

OooResult
runOooCapped(const TraceView &trc, const DepOracle &oracle,
             uint64_t max_cycles)
{
    OooConfig cfg;
    cfg.policyName = "never";
    cfg.maxCycles = max_cycles;
    OooProcessor proc(trc, oracle, cfg);
    return proc.run();
}

TEST(FastForwardEquiv, OooCycleCapPartialRuns)
{
    Trace trc = randomTrace(3);
    TraceView view(trc);
    DepOracle oracle(view);
    const OooResult full = runOooCapped(view, oracle, 0);
    ASSERT_EQ(full.committedOps, trc.size());

    unsigned partial = 0;
    uint64_t prev_ops = 0;
    for (uint64_t cap : {7ULL, 40ULL, 173ULL, 1000ULL}) {
        SCOPED_TRACE(cap);
        const OooResult r = runOooCapped(view, oracle, cap);
        EXPECT_EQ(r.cyclesSimulated + r.cyclesSkipped, r.cycles);
        EXPECT_GE(r.committedOps, prev_ops);
        prev_ops = r.committedOps;
        if (cap >= full.cycles) {
            // A cap the run never reaches changes nothing.
            EXPECT_EQ(r.cycles, full.cycles);
            EXPECT_EQ(r.cyclesSimulated, full.cyclesSimulated);
            EXPECT_EQ(r.committedOps, full.committedOps);
            continue;
        }
        // The loop stops on the first cycle past the cap, even when an
        // idle jump would have carried it further.
        ++partial;
        EXPECT_EQ(r.cycles, cap + 1);
        EXPECT_LT(r.committedOps, trc.size());
    }
    EXPECT_EQ(partial, 2u);
}

// --------------------------------------------------------------------
// Multiscalar model
// --------------------------------------------------------------------

SimResult
runMsCapped(const TraceView &trc, const DepOracle &oracle,
            const TaskSet &tasks, uint64_t max_cycles)
{
    MultiscalarConfig cfg;
    cfg.policyName = "never";
    cfg.maxCycles = max_cycles;
    MultiscalarProcessor proc(trc, oracle, tasks, cfg);
    return proc.run();
}

TEST(FastForwardEquiv, MultiscalarCycleCapPartialRuns)
{
    Trace trc = randomTrace(5);
    TraceView view(trc);
    DepOracle oracle(view);
    TaskSet tasks(view);
    const SimResult full = runMsCapped(view, oracle, tasks, 0);
    ASSERT_EQ(full.committedTasks, tasks.numTasks());

    unsigned partial = 0;
    uint64_t prev_ops = 0;
    for (uint64_t cap : {9ULL, 57ULL, 211ULL, 1500ULL}) {
        SCOPED_TRACE(cap);
        const SimResult r = runMsCapped(view, oracle, tasks, cap);
        EXPECT_EQ(r.cyclesSimulated + r.cyclesSkipped, r.cycles);
        EXPECT_GE(r.committedOps, prev_ops);
        prev_ops = r.committedOps;
        if (cap >= full.cycles) {
            EXPECT_EQ(r.cycles, full.cycles);
            EXPECT_EQ(r.cyclesSimulated, full.cyclesSimulated);
            EXPECT_EQ(r.stageVisits, full.stageVisits);
            EXPECT_EQ(r.committedOps, full.committedOps);
            continue;
        }
        ++partial;
        EXPECT_EQ(r.cycles, cap + 1);
        EXPECT_LT(r.committedTasks, tasks.numTasks());
        EXPECT_LT(r.committedOps, trc.size());
    }
    EXPECT_EQ(partial, 2u);
}

// --------------------------------------------------------------------
// Window model (analytical: no cycle loop, so no skipping -- the
// equivalence obligation degenerates to determinism)
// --------------------------------------------------------------------

TEST(FastForwardEquiv, WindowModelIsDeterministic)
{
    Trace trc = randomTrace(11);
    TraceView view(trc);
    DepOracle oracle(view);
    WindowModel model(view, oracle);

    const std::vector<size_t> ddc = {64, 256};
    WindowStudyResult a = model.study(128, ddc);
    WindowStudyResult b = model.study(128, ddc);
    EXPECT_EQ(a.misSpeculations, b.misSpeculations);
    EXPECT_EQ(a.staticDeps, b.staticDeps);
    EXPECT_EQ(a.staticDepsFor999, b.staticDepsFor999);
    EXPECT_EQ(a.ddcMissRates, b.ddcMissRates);
}

} // namespace
} // namespace mdp
