#include "harness/cycle_stats.hh"

#include <mutex>

namespace mdp
{

namespace
{

std::mutex &
statsMutex()
{
    static std::mutex m;
    return m;
}

CycleStats &
statsTotals()
{
    static CycleStats totals;
    return totals;
}

} // namespace

void
addCycleStats(const CycleStats &run)
{
    std::lock_guard<std::mutex> lock(statsMutex());
    CycleStats &t = statsTotals();
    t.cyclesSimulated += run.cyclesSimulated;
    t.cyclesSkipped += run.cyclesSkipped;
    t.stageVisits += run.stageVisits;
    t.stageSlots += run.stageSlots;
    t.truncatedRuns += run.truncatedRuns;
}

CycleStats
cycleStats()
{
    std::lock_guard<std::mutex> lock(statsMutex());
    return statsTotals();
}

void
resetCycleStats()
{
    std::lock_guard<std::mutex> lock(statsMutex());
    statsTotals() = CycleStats{};
}

} // namespace mdp
