/**
 * @file
 * Shared helpers for mdp_tables, the table/figure reproduction driver,
 * and for the micro benches.
 *
 * Every table prints the rows/series of one table or figure of the
 * paper, followed by shape checks: the qualitative properties the
 * paper's version of the result exhibits.  Absolute numbers differ
 * (synthetic workloads, simplified timing); the shapes should not.
 *
 * MDP_SCALE scales trace lengths (default 0.25 here so the full table
 * suite completes in minutes; use MDP_SCALE=1 for longer runs).
 * MDP_JOBS caps the worker threads of the ExperimentRunner every
 * table runs its cells on (default: hardware concurrency; MDP_JOBS=1
 * is the serial baseline and must produce byte-identical tables).
 * MDP_JSON_OUT=<dir> additionally writes each table's rows + shape
 * verdicts as <dir>/<table>.json; see harness/report.hh.
 */

#ifndef MDP_BENCH_BENCH_COMMON_HH
#define MDP_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/env.hh"
#include "base/table.hh"
#include "harness/cycle_stats.hh"
#include "harness/experiment.hh"
#include "harness/phase_timer.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "window/window_model.hh"
#include "workloads/suites.hh"

namespace mdp
{

/** Benchmark trace scale: MDP_SCALE, defaulting to 0.25. */
inline double
benchScale()
{
    return envDouble("MDP_SCALE", 0.25);
}

/**
 * The usual runner cell: @p workload (cached, at the bench scale) on
 * the Multiscalar model under makeMultiscalarConfig(ctx, stages,
 * policy), adjusted by @p tweak when one is given.  The run goes
 * through multiscalarMemo(), so a cell any table already ran is served,
 * not simulated again.
 */
inline std::function<SimResult()>
multiscalarCell(const std::string &workload, unsigned stages,
                const std::string &policy,
                std::function<void(MultiscalarConfig &)> tweak = {})
{
    return [=] {
        const WorkloadContext &ctx = cachedContext(workload, benchScale());
        MultiscalarConfig cfg =
            makeMultiscalarConfig(ctx, stages, policy);
        if (tweak)
            tweak(cfg);
        return multiscalarMemo().get(
            {workload, benchScale(), cfg},
            [&] { return runMultiscalar(ctx, cfg); });
    };
}

/**
 * A runner cell: the section-5 perfect-window study of @p workload
 * (cached, at the bench scale) for one window size, through
 * windowMemo().
 */
inline std::function<WindowStudyResult()>
windowCell(const std::string &workload, uint32_t window_size,
           std::vector<size_t> ddc_sizes = {})
{
    return [=] {
        const WorkloadContext &ctx = cachedContext(workload, benchScale());
        return windowMemo().get(
            {workload, benchScale(), window_size, ddc_sizes}, [&] {
                return WindowModel(ctx.trace(), ctx.oracle())
                    .study(window_size, ddc_sizes);
            });
    };
}

/** Print the standard experiment banner. */
inline void
banner(const std::string &what, const std::string &paper_ref)
{
    std::printf("=== %s ===\n", what.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    std::printf("workload scale: %.3g (set MDP_SCALE to change)\n\n",
                benchScale());
}

/** One shape-check line; collects verdicts for the exit code + JSON. */
class ShapeChecks
{
  public:
    void
    check(bool ok, const std::string &what)
    {
        std::printf("[%s] %s\n", ok ? "shape OK  " : "shape FAIL",
                    what.c_str());
        allOk &= ok;
        verdicts.emplace_back(ok, what);
    }

    bool
    finish() const
    {
        std::printf("\n%s\n", allOk ? "All shape checks passed."
                                    : "SOME SHAPE CHECKS FAILED.");
        return allOk;
    }

    const std::vector<std::pair<bool, std::string>> &
    all() const
    {
        return verdicts;
    }

  private:
    bool allOk = true;
    std::vector<std::pair<bool, std::string>> verdicts;
};

/**
 * Standard bench epilogue: print the verdict line, honor MDP_JSON_OUT,
 * and return the exit status -- nonzero when any shape check failed,
 * any run hit its cycle cap (its table cells are partial), or the JSON
 * artifact could not be written, so CI gates on the result instead of
 * just archiving the text.
 */
inline int
finishBench(const std::string &bench_name, const std::string &paper_ref,
            const ShapeChecks &sc, const TextTable &table)
{
    bool ok = sc.finish();
    BenchReport report(bench_name, paper_ref);
    report.setScale(benchScale());
    report.setJobs(experimentJobs());
    report.addTable(table);
    for (const auto &[check_ok, what] : sc.all())
        report.addCheck(check_ok, what);
    for (const auto &[phase, seconds] : phaseSeconds())
        report.addTiming(phase, seconds);
    CycleStats cs = cycleStats();
    if (cs.total())
        report.setCycleCounts(cs.cyclesSimulated, cs.cyclesSkipped,
                              cs.stageVisits, cs.stageSlots);
    if (cs.truncatedRuns) {
        const std::string what =
            std::to_string(cs.truncatedRuns) +
            " run(s) hit the cycle cap; their results are partial";
        std::printf("TRUNCATED: %s.\n", what.c_str());
        report.addCheck(false, what);
        ok = false;
    }
    if (!report.writeEnv())
        return 1;
    return ok ? 0 : 1;
}

/**
 * A table body: runs its cells on an ExperimentRunner, prints the
 * table and its shape checks, and returns the table for the report.
 */
using TableFn = TextTable(ShapeChecks &sc);

/** One table of mdp_tables, registered in bench/mdp_tables.cc. */
struct Table
{
    const char *name;     ///< its golden's basename, e.g. fig7_spec95
    const char *title;    ///< the banner headline
    const char *paperRef; ///< what it reproduces (banner and JSON)
    TableFn *run;
};

/**
 * Print @p t's banner, run it and finish it as one bench; returns its
 * exit status.  The process counters restart with each table, so its
 * report and truncation verdict cover only what it ran.
 */
inline int
runTable(const Table &t)
{
    resetPhaseSeconds();
    resetCycleStats();
    banner(t.title, t.paperRef);
    ShapeChecks sc;
    const TextTable table = t.run(sc);
    return finishBench(t.name, t.paperRef, sc, table);
}

} // namespace mdp

#endif // MDP_BENCH_BENCH_COMMON_HH
