#include "mdp/mdpt.hh"

#include "base/logging.hh"
#include "mdp/sync_unit.hh"

namespace mdp
{

Mdpt::Mdpt(const SyncUnitConfig &config)
    : cfg(config), entries(config.numEntries), lru(config.numEntries),
      byLoad(config.numEntries), byStore(config.numEntries)
{
    mdp_assert(config.numEntries > 0, "MDPT must have at least one entry");
    for (auto &e : entries) {
        e.counter = SatCounter(cfg.counterBits);
        e.pathStable = SatCounter(2);
        e.distStable = SatCounter(2);
    }
}

Mdpt::AllocResult
Mdpt::recordMisSpeculation(Addr ldpc, Addr stpc, uint32_t dist,
                           Addr store_task_pc)
{
    AllocResult res;

    const uint32_t idx = byLoad.find(
        ldpc, [&](uint32_t i) { return entries[i].stpc == stpc; });
    if (idx != PcChains::kEnd) {
        Entry &e = entries[idx];
        // The dynamic behavior of the edge may have changed; adopt a
        // new distance only once the old one has lost confidence.
        if (dist == e.dist) {
            e.distStable.increment();
        } else {
            e.distStable.decrement();
            if (e.distStable.value() == 0) {
                e.dist = dist;
                e.distStable = SatCounter(2, 2);
            }
        }
        if (e.storeTaskPc == store_task_pc)
            e.pathStable.increment();
        else
            e.pathStable.decrement();
        e.storeTaskPc = store_task_pc;
        if (cfg.saturateOnMisspec)
            e.counter.saturate();
        else
            e.counter.increment();
        lru.touch(idx);
        res.index = idx;
        return res;
    }

    uint32_t victim = static_cast<uint32_t>(lru.victim());
    Entry &e = entries[victim];
    if (e.valid) {
        byLoad.unlink(e.ldpc, victim);
        byStore.unlink(e.stpc, victim);
        res.evictedValid = true;
    }
    e.valid = true;
    e.ldpc = ldpc;
    e.stpc = stpc;
    e.dist = dist;
    e.storeTaskPc = store_task_pc;
    e.counter = SatCounter(cfg.counterBits, cfg.initialCount);
    e.pathStable = SatCounter(2, 3);
    e.distStable = SatCounter(2, 2);
    byLoad.push(ldpc, victim);
    byStore.push(stpc, victim);
    lru.touch(victim);
    res.index = victim;
    return res;
}

bool
Mdpt::pathMatches(const Entry &e, uint64_t load_instance,
                  const TaskPcSource *tps) const
{
    if (cfg.predictor != PredictorKind::PathCounter)
        return true;
    if (!tps)
        return true;    // no context available; fall back to counter
    if (!e.pathCheckUsable())
        return true;    // path proved unstable: counter-only
    if (load_instance < e.dist)
        return false;
    Addr pc = tps->taskPc(load_instance - e.dist);
    // Unknown producer task: no basis for synchronization.
    return pc != 0 && pc == e.storeTaskPc;
}

void
Mdpt::weaken(uint32_t idx)
{
    entries[idx].counter.decrement();
}

void
Mdpt::strengthen(uint32_t idx)
{
    entries[idx].counter.increment();
}

size_t
Mdpt::occupancy() const
{
    size_t n = 0;
    for (const auto &e : entries)
        n += e.valid ? 1 : 0;
    return n;
}

} // namespace mdp
