/**
 * @file
 * Integration tests for the Multiscalar timing model: crafted-trace
 * scenarios with exact expectations, plus policy-ordering properties
 * on the synthetic workloads.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "multiscalar/processor.hh"
#include "trace/builder.hh"
#include "workloads/suites.hh"

namespace mdp
{
namespace
{

/** Two tasks: task 0 stores late to 0x100, task 1 loads it early.
 *  Under blind speculation this is a guaranteed violation. */
Trace
racyTrace(int filler_before_store = 20, int filler_before_load = 0)
{
    TraceBuilder b("racy");
    b.beginTask(0x1000);
    for (int i = 0; i < filler_before_store; ++i)
        b.alu(0x10 + i * 4);
    b.store(0x300, 0x100);
    b.beginTask(0x1000);
    for (int i = 0; i < filler_before_load; ++i)
        b.alu(0x60 + i * 4);
    SeqNum l = b.load(0x400, 0x100);
    (void)l;
    for (int i = 0; i < 10; ++i)
        b.alu(0x80 + i * 4);
    return b.take();
}

SimResult
runPolicy(const Trace &t, const std::string &policy, unsigned stages = 4)
{
    WorkloadContext ctx{Trace(t)};
    MultiscalarConfig cfg = makeMultiscalarConfig(ctx, stages, policy);
    return runMultiscalar(ctx, cfg);
}

TEST(MultiscalarDeath, SourcePastTheTraceFailsFast)
{
    // A trace that skipped validation (a cache entry is only
    // checksummed) names a source past its end; assigning its task
    // must refuse it before the source indexes any lane or ring.
    MicroOp first;
    first.kind = OpKind::IntAlu;
    first.pc = 0x10;
    MicroOp second = first;
    second.pc = 0x14;
    second.src1 = 100;
    Trace t("forged");
    t.append(first);
    t.append(second);
    DepOracle oracle(t);
    TaskSet tasks(t);
    MultiscalarConfig cfg;
    EXPECT_EXIT(MultiscalarProcessor(t, oracle, tasks, cfg).run(),
                testing::ExitedWithCode(1),
                "source 100 does not precede consumer at seq 1");
}

TEST(MultiscalarDeath, TaskSetOfAnotherTraceFailsFast)
{
    // Task spans are runs of the oracle's lists; a task set counting
    // other memory ops would index past them.
    Trace t = racyTrace();
    TraceBuilder b("other");
    b.beginTask(0x1000);
    b.load(0x10, 0x100);
    Trace other = b.take();
    DepOracle oracle(t);
    TaskSet tasks(other);
    MultiscalarConfig cfg;
    EXPECT_EXIT(MultiscalarProcessor(t, oracle, tasks, cfg),
                testing::ExitedWithCode(1),
                "task set counts 1 loads and 0 stores, the oracle");
}

TEST(Multiscalar, CompletesAndCommitsEverything)
{
    Trace t = racyTrace();
    SimResult r = runPolicy(t, "always");
    EXPECT_EQ(r.committedOps, t.size());
    EXPECT_EQ(r.committedTasks, t.numTasks());
    EXPECT_EQ(r.committedLoads, 1u);
    EXPECT_EQ(r.committedStores, 1u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(Multiscalar, BlindSpeculationViolatesTheRace)
{
    SimResult r = runPolicy(racyTrace(), "always");
    EXPECT_EQ(r.misSpeculations, 1u);
}

TEST(Multiscalar, NeverPolicyHasNoViolations)
{
    SimResult r = runPolicy(racyTrace(), "never");
    EXPECT_EQ(r.misSpeculations, 0u);
    EXPECT_GT(r.loadsBlockedFrontier, 0u);
}

TEST(Multiscalar, PerfectSyncHasNoViolationsAndNoFalseWaits)
{
    SimResult r = runPolicy(racyTrace(), "psync");
    EXPECT_EQ(r.misSpeculations, 0u);
    EXPECT_EQ(r.loadsBlockedSync, 1u);
    EXPECT_EQ(r.frontierReleases, 0u);
}

TEST(Multiscalar, WaitPolicyHasNoViolations)
{
    SimResult r = runPolicy(racyTrace(), "wait");
    EXPECT_EQ(r.misSpeculations, 0u);
}

TEST(Multiscalar, IndependentLoadIsNeverDelayed)
{
    TraceBuilder b("indep");
    b.beginTask(0x1000);
    for (int i = 0; i < 20; ++i)
        b.alu(0x10);
    b.store(0x300, 0x100);
    b.beginTask(0x1000);
    b.load(0x400, 0x999);   // different address
    for (int i = 0; i < 10; ++i)
        b.alu(0x20);
    Trace t = b.take();
    for (const char *pol : {"always", "psync", "wait"}) {
        SimResult r = runPolicy(t, pol);
        EXPECT_EQ(r.misSpeculations, 0u) << pol;
        EXPECT_EQ(r.loadsBlockedSync + r.loadsBlockedFrontier, 0u)
            << pol;
    }
}

TEST(Multiscalar, SyncPolicyLearnsAfterOneViolation)
{
    // Repeat the racy pattern many times: SYNC should violate once
    // (the compulsory training miss) and synchronize afterwards.
    TraceBuilder b("loop");
    for (int iter = 0; iter < 50; ++iter) {
        b.beginTask(0x1000);
        b.load(0x400, 0x100);      // reads the previous iteration
        for (int i = 0; i < 15; ++i)
            b.alu(0x10 + i * 4);
        b.store(0x300, 0x100);     // writes for the next iteration
        for (int i = 0; i < 4; ++i)
            b.alu(0x50 + i * 4);
    }
    Trace t = b.take();

    SimResult always = runPolicy(t, "always", 8);
    SimResult sync = runPolicy(t, "sync", 8);
    EXPECT_GT(always.misSpeculations, 10u);
    EXPECT_LT(sync.misSpeculations, always.misSpeculations / 3);
    EXPECT_GT(sync.syncStats.signalsDelivered +
                  sync.syncStats.fullBypasses,
              10u);
}

TEST(Multiscalar, IntraTaskDependencesAreNeverViolated)
{
    TraceBuilder b("intra");
    for (int iter = 0; iter < 10; ++iter) {
        b.beginTask(0x1000);
        b.store(0x300, 0x500 + iter * 8);
        for (int i = 0; i < 5; ++i)
            b.alu(0x10);
        b.load(0x400, 0x500 + iter * 8);
        for (int i = 0; i < 5; ++i)
            b.alu(0x20);
    }
    Trace t = b.take();
    SimResult r = runPolicy(t, "always", 8);
    EXPECT_EQ(r.misSpeculations, 0u);
}

TEST(Multiscalar, DeterministicAcrossRuns)
{
    const Workload &w = findWorkload("xlisp");
    Trace t = w.generate(0.005);
    WorkloadContext ctx(std::move(t));
    MultiscalarConfig cfg = makeMultiscalarConfig(ctx, 8, "esync");
    SimResult a = runMultiscalar(ctx, cfg);
    SimResult b2 = runMultiscalar(ctx, cfg);
    EXPECT_EQ(a.cycles, b2.cycles);
    EXPECT_EQ(a.misSpeculations, b2.misSpeculations);
    EXPECT_EQ(a.pred.yy, b2.pred.yy);
}

TEST(Multiscalar, ControlMispredictionStallsSequencer)
{
    const Workload &w = findWorkload("espresso");
    Trace t = w.generate(0.01);
    WorkloadContext ctx(std::move(t));
    MultiscalarConfig cfg = makeMultiscalarConfig(ctx, 4, "always");
    cfg.taskMispredictRate = 0.2;
    SimResult bad = runMultiscalar(ctx, cfg);
    cfg.taskMispredictRate = 0.0;
    SimResult good = runMultiscalar(ctx, cfg);
    EXPECT_GT(bad.controlStalls, 0u);
    EXPECT_EQ(good.controlStalls, 0u);
    EXPECT_GT(bad.cycles, good.cycles);
}

TEST(Multiscalar, MisspecLogMatchesCount)
{
    const Workload &w = findWorkload("compress");
    Trace t = w.generate(0.01);
    WorkloadContext ctx(std::move(t));
    MultiscalarConfig cfg = makeMultiscalarConfig(ctx, 8, "always");
    cfg.logMisSpeculations = true;
    SimResult r = runMultiscalar(ctx, cfg);
    EXPECT_EQ(r.misspecLog.size(), r.misSpeculations);
    EXPECT_GT(r.misSpeculations, 0u);
}

TEST(Multiscalar, PredBreakdownCoversPredictedLoads)
{
    const Workload &w = findWorkload("espresso");
    Trace t = w.generate(0.01);
    WorkloadContext ctx(std::move(t));
    MultiscalarConfig cfg = makeMultiscalarConfig(ctx, 8, "sync");
    SimResult r = runMultiscalar(ctx, cfg);
    EXPECT_GT(r.pred.total(), 0u);
    // The overwhelming majority of loads have no dependence.
    EXPECT_GT(r.pred.nn, r.pred.total() / 2);
    // There must be real synchronizations counted as Y/Y.
    EXPECT_GT(r.pred.yy + r.pred.yn, 0u);
}

// --------------------------------------------------------------------
// Policy-ordering properties on the SPECint92 workloads
// --------------------------------------------------------------------

struct PolicyCase
{
    std::string workload;
    unsigned stages;
};

// Without a printer gtest dumps the raw bytes, heap pointer included, into
// the "# GetParam()" part of the listed name, so the name changed per run.
void
PrintTo(const PolicyCase &c, std::ostream *os)
{
    *os << '{' << c.workload << ", " << c.stages << '}';
}

class PolicyOrdering : public ::testing::TestWithParam<PolicyCase>
{
};

TEST_P(PolicyOrdering, PaperInvariantsHold)
{
    const auto &[name, stages] = GetParam();
    WorkloadContext ctx(name, 0.02);

    auto run = [&](const std::string &p) {
        return runMultiscalar(ctx, makeMultiscalarConfig(ctx, stages, p));
    };
    SimResult never = run("never");
    SimResult always = run("always");
    SimResult psync = run("psync");
    SimResult sync = run("sync");
    SimResult esync = run("esync");

    // Conservation: every policy commits the whole trace.
    for (const SimResult *r : {&never, &always, &psync, &sync, &esync})
        EXPECT_EQ(r->committedOps, ctx.trace().size());

    // Oracle policies never mis-speculate.
    EXPECT_EQ(never.misSpeculations, 0u);
    EXPECT_EQ(psync.misSpeculations, 0u);

    // Blind speculation beats no speculation (section 5.4).
    EXPECT_GT(always.ipc(), never.ipc());

    // Ideal synchronization bounds everything (section 5.4/5.5).
    EXPECT_GE(psync.ipc(), always.ipc() * 0.99);
    EXPECT_GE(psync.ipc(), sync.ipc() * 0.99);
    EXPECT_GE(psync.ipc(), esync.ipc() * 0.99);

    // The mechanism reduces mis-speculations substantially (Table 9).
    EXPECT_LT(esync.misSpeculations, always.misSpeculations);
    EXPECT_LT(sync.misSpeculations, always.misSpeculations);
}

INSTANTIATE_TEST_SUITE_P(
    Spec92, PolicyOrdering,
    ::testing::Values(PolicyCase{"compress", 4}, PolicyCase{"compress", 8},
                      PolicyCase{"espresso", 4}, PolicyCase{"espresso", 8},
                      PolicyCase{"gcc", 8}, PolicyCase{"sc", 8},
                      PolicyCase{"xlisp", 4}, PolicyCase{"xlisp", 8}),
    [](const auto &info) {
        return info.param.workload + "_" +
               std::to_string(info.param.stages) + "st";
    });

/** The organizations (combined vs split) must both work end to end. */
class Organizations
    : public ::testing::TestWithParam<SyncOrganization>
{
};

TEST_P(Organizations, EndToEndReducesMisspecs)
{
    WorkloadContext ctx("espresso", 0.01);
    MultiscalarConfig cfg = makeMultiscalarConfig(ctx, 8, "sync");
    cfg.organization = GetParam();
    SimResult sync = runMultiscalar(ctx, cfg);
    cfg.policyName = "always";
    SimResult always = runMultiscalar(ctx, cfg);
    EXPECT_EQ(sync.committedOps, ctx.trace().size());
    EXPECT_LT(sync.misSpeculations, always.misSpeculations);
}

/** Every registered workload (including all SPEC95 FP profiles) runs
 *  end to end under the mechanism and commits its whole trace. */
class EveryWorkload : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryWorkload, RunsUnderTheMechanism)
{
    WorkloadContext ctx(GetParam(), 0.004);
    SimResult r = runMultiscalar(
        ctx, makeMultiscalarConfig(ctx, 8, "esync"));
    EXPECT_EQ(r.committedOps, ctx.trace().size());
    EXPECT_EQ(r.committedTasks, ctx.tasks().numTasks());
    EXPECT_GT(r.ipc(), 0.3);
    EXPECT_LT(r.misspecPerLoad(), 0.2);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, EveryWorkload,
    ::testing::ValuesIn(allWorkloadNames()),
    [](const auto &info) {
        std::string n = info.param;
        for (char &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

INSTANTIATE_TEST_SUITE_P(Both, Organizations,
                         ::testing::Values(SyncOrganization::Combined,
                                           SyncOrganization::Split),
                         [](const auto &info) {
                             return info.param ==
                                     SyncOrganization::Combined
                                 ? "Combined"
                                 : "Split";
                         });

} // namespace
} // namespace mdp
