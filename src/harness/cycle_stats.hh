/**
 * @file
 * Process-wide accounting of the timing models' event-driven
 * fast-forward: how many cycles were actually simulated vs. jumped
 * over (see OooResult/SimResult cyclesSimulated/cyclesSkipped).
 *
 * The harness run helpers (runMultiscalar, runOoo) fold every run's
 * counters in here; finishBench() emits the totals as "cycle_stats"
 * in the JSON artifact so CI can watch the skip rate stay high, and
 * fails the bench when any run hit its cycle cap.  The counters are
 * deterministic (they count simulator cycles, not wall time), so cold
 * and warm runs of the same bench report identical values.
 */

#ifndef MDP_HARNESS_CYCLE_STATS_HH
#define MDP_HARNESS_CYCLE_STATS_HH

#include <cstdint>

namespace mdp
{

/** Aggregate fast-forward counters across all runs of this process. */
struct CycleStats
{
    uint64_t cyclesSimulated = 0;
    uint64_t cyclesSkipped = 0;

    /**
     * Frontier occupancy: stage-step calls actually made vs. the
     * stages * simulated-cycles slot budget.  With the per-PE event
     * frontier, visits/slots is the fraction of PEs that were active.
     * Only the Multiscalar model reports these; they stay 0 for OoO
     * runs.
     */
    uint64_t stageVisits = 0;
    uint64_t stageSlots = 0;

    /** Runs that hit the cycle cap, whose results are partial. */
    uint64_t truncatedRuns = 0;

    uint64_t total() const { return cyclesSimulated + cyclesSkipped; }

    /** Fraction of total cycles that were skipped (0 when idle). */
    double
    skipRate() const
    {
        uint64_t t = total();
        return t ? static_cast<double>(cyclesSkipped) / t : 0.0;
    }

    /** Fraction of stage slots actually visited (0 when idle). */
    double
    stageOccupancy() const
    {
        return stageSlots
                   ? static_cast<double>(stageVisits) / stageSlots
                   : 0.0;
    }
};

/** Add one run's counters to the process totals.  Thread-safe. */
void addCycleStats(const CycleStats &run);

/** Snapshot of the process totals.  Thread-safe. */
CycleStats cycleStats();

/** Reset the totals (tests, and mdp_tables before each table). */
void resetCycleStats();

} // namespace mdp

#endif // MDP_HARNESS_CYCLE_STATS_HH
