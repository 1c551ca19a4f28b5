#include "mdp/load_wait.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/random.hh"

namespace mdp
{

LoadWaitUnit::LoadWaitUnit(const SyncUnitConfig &config)
    : cfg(config),
      table(config.loadWaitEntries, SatCounter(config.loadWaitBits))
{
    mdp_assert(cfg.loadWaitEntries > 0,
               "load-wait table must have at least one entry");
}

size_t
LoadWaitUnit::tableIndex(Addr pc) const
{
    return static_cast<size_t>(mix64(pc)) % table.size();
}

void
LoadWaitUnit::tickClear()
{
    if (cfg.loadWaitClearInterval == 0)
        return;
    if (++checksSinceClear < cfg.loadWaitClearInterval)
        return;
    checksSinceClear = 0;
    // Parked loads are unaffected: their release comes from the store
    // frontier, not from table state.
    for (SatCounter &c : table)
        c = SatCounter(cfg.loadWaitBits);
}

LoadCheck
LoadWaitUnit::loadReady(Addr ldpc, Addr addr, uint64_t instance,
                        LoadId ldid, const TaskPcSource *tps)
{
    (void)addr;
    (void)instance;
    (void)tps;
    ++st.loadChecks;
    tickClear();

    LoadCheck r;
    if (!table[tableIndex(ldpc)].atLeast(cfg.loadWaitThreshold))
        return r;
    r.predicted = true;
    r.wait = true;
    ++st.loadsPredicted;
    ++st.loadsWaited;
    waiters.push_back(ldid);
    return r;
}

void
LoadWaitUnit::storeReady(Addr stpc, Addr addr, uint64_t instance,
                         LoadId store_id, std::vector<LoadId> &wakeups)
{
    // No store-side synchronization: flagged loads wait for the
    // frontier, which the core observes on its own.
    (void)stpc;
    (void)addr;
    (void)instance;
    (void)store_id;
    (void)wakeups;
    ++st.storeChecks;
}

void
LoadWaitUnit::misSpeculation(Addr ldpc, Addr stpc, uint32_t dist,
                             Addr store_task_pc)
{
    (void)stpc;
    (void)dist;
    (void)store_task_pc;
    ++st.misSpecsRecorded;
    table[tableIndex(ldpc)].increment();
}

void
LoadWaitUnit::frontierRelease(LoadId ldid)
{
    ++st.frontierReleases;
    std::erase(waiters, ldid);
}

void
LoadWaitUnit::squash(LoadId min_ldid, uint64_t min_store_id)
{
    (void)min_store_id;
    size_t before = waiters.size();
    std::erase_if(waiters, [&](LoadId l) { return l >= min_ldid; });
    st.squashFrees += before - waiters.size();
}

void
LoadWaitUnit::drainReleasedLoads(std::vector<LoadId> &out)
{
    (void)out;   // nothing evicts a parked load
}

} // namespace mdp
