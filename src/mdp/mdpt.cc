#include "mdp/mdpt.hh"

#include "base/logging.hh"
#include "mdp/sync_unit.hh"

namespace mdp
{

namespace
{

uint64_t
pairKey(Addr ldpc, Addr stpc)
{
    return (ldpc << 20) ^ stpc;
}

} // namespace

Mdpt::Mdpt(const SyncUnitConfig &config)
    : cfg(config), entries(config.numEntries), lru(config.numEntries)
{
    mdp_assert(config.numEntries > 0, "MDPT must have at least one entry");
    // byLoad/byStore are deliberately NOT pre-sized: their bucket
    // history feeds equal_range order, which feeds the match order the
    // sync units touch/weaken entries in.  byPair's layout is never
    // observed, so its capacity hint is free.
    byPair.reserve(config.numEntries);
    for (auto &e : entries) {
        e.counter = SatCounter(cfg.counterBits);
        e.pathStable = SatCounter(2);
        e.distStable = SatCounter(2);
    }
}

void
Mdpt::lookupLoad(Addr ldpc, std::vector<uint32_t> &out) const
{
    auto [lo, hi] = byLoad.equal_range(ldpc);
    for (auto it = lo; it != hi; ++it)
        out.push_back(it->second);
}

void
Mdpt::lookupStore(Addr stpc, std::vector<uint32_t> &out) const
{
    auto [lo, hi] = byStore.equal_range(stpc);
    for (auto it = lo; it != hi; ++it)
        out.push_back(it->second);
}

void
Mdpt::unindex(uint32_t idx)
{
    const Entry &e = entries[idx];
    auto erase_one = [idx](std::unordered_multimap<Addr, uint32_t> &map,
                           Addr key) {
        auto [lo, hi] = map.equal_range(key);
        for (auto it = lo; it != hi; ++it) {
            if (it->second == idx) {
                map.erase(it);
                return;
            }
        }
    };
    erase_one(byLoad, e.ldpc);
    erase_one(byStore, e.stpc);
    byPair.erase(pairKey(e.ldpc, e.stpc));
}

void
Mdpt::index(uint32_t idx)
{
    const Entry &e = entries[idx];
    byLoad.emplace(e.ldpc, idx);
    byStore.emplace(e.stpc, idx);
    byPair[pairKey(e.ldpc, e.stpc)] = idx;
}

Mdpt::AllocResult
Mdpt::recordMisSpeculation(Addr ldpc, Addr stpc, uint32_t dist,
                           Addr store_task_pc)
{
    AllocResult res;

    const uint32_t *hit = byPair.find(pairKey(ldpc, stpc));
    if (hit && entries[*hit].valid && entries[*hit].ldpc == ldpc &&
        entries[*hit].stpc == stpc) {
        uint32_t idx = *hit;
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
        unindex(victim);
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
    index(victim);
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
