#include "mdp/ddc.hh"

#include "base/logging.hh"

namespace mdp
{

DepDependenceCache::DepDependenceCache(size_t num_entries)
    : entries(num_entries), lru(num_entries)
{
    mdp_assert(num_entries > 0, "DDC must have at least one entry");
}

bool
DepDependenceCache::access(Addr load_pc, Addr store_pc)
{
    uint64_t k = key(load_pc, store_pc);
    if (const size_t *hit = index.find(k)) {
        ++numHits;
        lru.touch(*hit);
        return true;
    }

    ++numMisses;
    size_t victim = lru.victim();
    Entry &e = entries[victim];
    if (e.valid)
        index.erase(key(e.loadPc, e.storePc));
    e.loadPc = load_pc;
    e.storePc = store_pc;
    e.valid = true;
    index[k] = victim;
    lru.touch(victim);
    return false;
}

} // namespace mdp
