/**
 * @file
 * Tests for the superscalar continuous-window model.
 */

#include <gtest/gtest.h>

#include "ooo/ooo_model.hh"
#include "trace/builder.hh"
#include "workloads/suites.hh"

namespace mdp
{
namespace
{

// --------------------------------------------------------------------
// OooProcessor
// --------------------------------------------------------------------

Trace
racyTrace()
{
    TraceBuilder b("racy");
    b.beginTask(0x1000);
    for (int iter = 0; iter < 40; ++iter) {
        // The store's address chain delays it past the next load.
        SeqNum c = b.alu(0x10);
        c = b.op(OpKind::IntDiv, 0x14, c);
        b.store(0x300, 0x100 + (iter % 4) * 0x40, c);
        b.load(0x400, 0x100 + (iter % 4) * 0x40);
        for (int i = 0; i < 6; ++i)
            b.alu(0x20 + i * 4);
    }
    return b.take();
}

OooResult
runOoo(const Trace &t, const std::string &policy, unsigned window = 64)
{
    DepOracle o(t);
    OooConfig cfg;
    cfg.policyName = policy;
    cfg.windowSize = window;
    OooProcessor p(t, o, cfg);
    return p.run();
}

TEST(OooDeath, DegenerateConfigFailsFast)
{
    // A zero window could never commit an op; it must fail in the
    // constructor, not run to the cycle cap.
    Trace t = racyTrace();
    DepOracle o(t);
    OooConfig cfg;
    cfg.windowSize = 0;
    EXPECT_EXIT(OooProcessor(t, o, cfg), testing::ExitedWithCode(1),
                "windowSize must be >= 1");
}

TEST(OooDeath, SourcePastTheTraceFailsAtFetch)
{
    // A trace that skipped validation (a cache entry is only
    // checksummed) names a source past its end; fetch must refuse it
    // before the issue scan reads that source's lanes.
    MicroOp first;
    first.kind = OpKind::IntAlu;
    first.pc = 0x10;
    MicroOp second = first;
    second.pc = 0x14;
    second.src1 = 100;
    Trace t("forged");
    t.append(first);
    t.append(second);
    DepOracle o(t);
    OooConfig cfg;
    EXPECT_EXIT(OooProcessor(t, o, cfg).run(), testing::ExitedWithCode(1),
                "source 100 does not precede consumer at seq 1");
}

TEST(Ooo, CompletesAllPolicies)
{
    Trace t = racyTrace();
    for (const char *pol : {"never", "always", "wait", "psync", "sync"}) {
        OooResult r = runOoo(t, pol);
        EXPECT_EQ(r.committedOps, t.size()) << pol;
        EXPECT_GT(r.cycles, 0u) << pol;
    }
}

TEST(Ooo, OraclePoliciesNeverViolate)
{
    Trace t = racyTrace();
    EXPECT_EQ(runOoo(t, "never").misSpeculations, 0u);
    EXPECT_EQ(runOoo(t, "wait").misSpeculations, 0u);
    EXPECT_EQ(runOoo(t, "psync").misSpeculations, 0u);
}

TEST(Ooo, BlindSpeculationViolates)
{
    Trace t = racyTrace();
    OooResult r = runOoo(t, "always");
    EXPECT_GT(r.misSpeculations, 0u);
}

TEST(Ooo, SyncReducesViolations)
{
    Trace t = racyTrace();
    OooResult always = runOoo(t, "always");
    OooResult sync = runOoo(t, "sync");
    EXPECT_LT(sync.misSpeculations, always.misSpeculations);
}

TEST(Ooo, LargerWindowSeesMoreViolations)
{
    const Workload &w = findWorkload("xlisp");
    Trace t = w.generate(0.005);
    uint64_t small = runOoo(t, "always", 16).misSpeculations;
    uint64_t large = runOoo(t, "always", 128).misSpeculations;
    EXPECT_GE(large, small);
}

TEST(Ooo, SpeculationBeatsNoSpeculation)
{
    const Workload &w = findWorkload("espresso");
    Trace t = w.generate(0.005);
    OooResult never = runOoo(t, "never", 128);
    OooResult always = runOoo(t, "always", 128);
    EXPECT_GT(always.ipc(), never.ipc());
}

TEST(Ooo, Deterministic)
{
    Trace t = racyTrace();
    OooResult a = runOoo(t, "sync");
    OooResult b = runOoo(t, "sync");
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.misSpeculations, b.misSpeculations);
}

TEST(Ooo, EmptyTrace)
{
    Trace t;
    DepOracle o(t);
    OooConfig cfg;
    OooProcessor p(t, o, cfg);
    OooResult r = p.run();
    EXPECT_EQ(r.committedOps, 0u);
    EXPECT_EQ(r.cycles, 0u);
}

} // namespace
} // namespace mdp
