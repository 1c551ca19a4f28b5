/**
 * @file
 * Tests for the experiment harness helpers.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/cycle_stats.hh"
#include "harness/experiment.hh"
#include "harness/phase_timer.hh"
#include "harness/runner.hh"
#include "harness/sim_stats.hh"
#include "mdp/dep_policy.hh"
#include "trace/builder.hh"
#include "workloads/suites.hh"

namespace mdp
{
namespace
{

TEST(Harness, PhaseTimerAccumulationContract)
{
    // The contract (see phase_timer.hh): totals are process-wide and
    // monotone.  Constructing or reusing an ExperimentRunner must NOT
    // reset them -- a bench that runs several grids and reports once
    // wants the union -- so per-section deltas go through snapshots.
    resetPhaseSeconds();
    addPhaseSeconds("contract_a", 1.0);
    addPhaseSeconds("contract_b", 2.0);

    const auto snapshot = phaseSeconds();
    ASSERT_EQ(snapshot.size(), 2u);

    // Runner construction and reuse leave the totals untouched.
    ExperimentRunner<SimResult> first(1);
    first.runAll();
    ExperimentRunner<SimResult> second(1);
    second.runAll();
    second.runAll();
    EXPECT_EQ(phaseSeconds(), snapshot);

    // Accumulation, not replacement.
    addPhaseSeconds("contract_a", 0.5);
    addPhaseSeconds("contract_c", 3.0);
    const auto totals = phaseSeconds();
    ASSERT_EQ(totals.size(), 3u);
    EXPECT_EQ(totals[0].first, "contract_a");
    EXPECT_DOUBLE_EQ(totals[0].second, 1.5);

    // Deltas: only phases that advanced since the snapshot, by the
    // advanced amount.
    const auto since = phaseSecondsSince(snapshot);
    ASSERT_EQ(since.size(), 2u);
    EXPECT_EQ(since[0].first, "contract_a");
    EXPECT_DOUBLE_EQ(since[0].second, 0.5);
    EXPECT_EQ(since[1].first, "contract_c");
    EXPECT_DOUBLE_EQ(since[1].second, 3.0);

    resetPhaseSeconds();
    EXPECT_TRUE(phaseSeconds().empty());
}

TEST(Harness, ContextFromWorkloadName)
{
    WorkloadContext ctx("espresso", 0.005);
    EXPECT_EQ(ctx.name(), "espresso");
    EXPECT_GT(ctx.trace().size(), 0u);
    EXPECT_GT(ctx.tasks().numTasks(), 0u);
    EXPECT_GT(ctx.taskMispredictRate(), 0.0);
    EXPECT_EQ(ctx.trace().validate(), "");
}

TEST(Harness, ContextFromExternalTrace)
{
    TraceBuilder b("ext");
    b.beginTask(1);
    b.alu(1);
    b.load(2, 0x10);
    WorkloadContext ctx(b.take());
    EXPECT_EQ(ctx.name(), "ext");
    EXPECT_EQ(ctx.trace().size(), 2u);
    EXPECT_DOUBLE_EQ(ctx.taskMispredictRate(), 0.0);
}

TEST(Harness, ConfigCarriesStagesAndPolicy)
{
    WorkloadContext ctx("xlisp", 0.005);
    MultiscalarConfig cfg = makeMultiscalarConfig(ctx, 8, "esync");
    EXPECT_EQ(cfg.numStages, 8u);
    EXPECT_EQ(cfg.policyName, "esync");
    EXPECT_EQ(cfg.sync.slotsPerEntry, 8u);
    EXPECT_DOUBLE_EQ(cfg.taskMispredictRate,
                     ctx.taskMispredictRate());
}

TEST(Harness, CycleCapIsATruncatedResultAndCounted)
{
    WorkloadContext ctx("espresso", 0.005);
    MultiscalarConfig ms = makeMultiscalarConfig(ctx, 4, "esync");
    OooConfig ooo;
    resetCycleStats();

    const SimResult ms_full = runMultiscalar(ctx, ms);
    const OooResult ooo_full = runOoo(ctx, ooo);
    EXPECT_FALSE(ms_full.truncated);
    EXPECT_FALSE(ooo_full.truncated);
    EXPECT_EQ(ms_full.committedTasks, ctx.tasks().numTasks());
    EXPECT_EQ(ooo_full.committedOps, ctx.trace().size());
    EXPECT_EQ(cycleStats().truncatedRuns, 0u);

    ms.maxCycles = 50;
    ooo.maxCycles = 50;
    const SimResult ms_capped = runMultiscalar(ctx, ms);
    const OooResult ooo_capped = runOoo(ctx, ooo);
    EXPECT_TRUE(ms_capped.truncated);
    EXPECT_TRUE(ooo_capped.truncated);
    EXPECT_LT(ms_capped.committedTasks, ctx.tasks().numTasks());
    EXPECT_LT(ooo_capped.committedOps, ctx.trace().size());
    EXPECT_EQ(cycleStats().truncatedRuns, 2u);
    resetCycleStats();
}

TEST(Harness, CheckRunSpecRejectsWhatTheModelsCannotRun)
{
    EXPECT_EQ(checkRunSpec(RunSpec()), "");
    RunSpec ooo;
    ooo.model = "ooo";
    ooo.org = "split";
    ooo.tags = "address";
    EXPECT_EQ(checkRunSpec(ooo), "");

    // Each bad field is named in the reason.
    const auto rejects = [](RunSpec spec, const std::string &what) {
        const std::string error = checkRunSpec(spec);
        EXPECT_NE(error.find(what), std::string::npos)
            << "'" << error << "' lacks '" << what << "'";
    };
    RunSpec s;
    s.scale = -1;
    rejects(s, "scale");
    s.scale = 0;
    rejects(s, "scale");
    s = RunSpec();
    s.entries = 0;
    rejects(s, "entries");
    s = RunSpec();
    s.stages = 0;
    rejects(s, "stages");
    s.stages = kMaxStages + 1;
    rejects(s, "stages");
    s = RunSpec();
    s.window = 0;
    rejects(s, "window");
    s = RunSpec();
    s.org = "hybrid";
    rejects(s, "unknown org 'hybrid' (combined|split|distributed)");
    s = RunSpec();
    s.tags = "pc";
    rejects(s, "unknown tags 'pc' (distance|address)");
    s = RunSpec();
    s.model = "window";
    rejects(s, "unknown model 'window' (multiscalar|ooo)");
    s = RunSpec();
    s.policy = "yolo";
    rejects(s, "unknown policy 'yolo'");
    s = RunSpec();
    s.workload = "nonesuch";
    rejects(s, "unknown workload 'nonesuch'");
}

TEST(Harness, SpeedupPct)
{
    SimResult base;
    base.cycles = 100;
    base.committedOps = 100;   // IPC 1.0
    SimResult fast;
    fast.cycles = 50;
    fast.committedOps = 100;   // IPC 2.0
    EXPECT_NEAR(speedupPct(base, fast), 100.0, 1e-9);
    EXPECT_NEAR(speedupPct(base, base), 0.0, 1e-9);
    SimResult zero;
    EXPECT_DOUBLE_EQ(speedupPct(zero, fast), 0.0);
}

TEST(Harness, PolicyNamesRoundTrip)
{
    // The paper's display names (the bench column headers) resolve
    // back to their registry keys.
    for (const std::string key :
         {"never", "always", "wait", "psync", "sync", "esync"}) {
        const std::string shown = policyDisplayName(key);
        EXPECT_NE(shown, key);
        EXPECT_EQ(makeDependencePolicy(shown)->name(), key);
    }
    EXPECT_EQ(policyDisplayName("psync"), "PSYNC");
}

TEST(Harness, UsesPredictorOnlyForSyncPolicies)
{
    for (const std::string key : {"sync", "esync"})
        EXPECT_TRUE(makeDependencePolicy(key)->needsSynchronizer())
            << key;
    for (const std::string key : {"always", "never", "wait", "psync"})
        EXPECT_FALSE(makeDependencePolicy(key)->needsSynchronizer())
            << key;
}

} // namespace
} // namespace mdp
