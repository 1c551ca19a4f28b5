#include "mdp/mdst.hh"

#include "base/logging.hh"

namespace mdp
{

Mdst::Mdst(size_t num_entries)
    : entries(num_entries), stamps(num_entries, 0)
{
    mdp_assert(num_entries > 0, "MDST must have at least one entry");
}

int
Mdst::find(Addr ldpc, Addr stpc, uint64_t instance) const
{
    for (uint32_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        if (e.valid && e.ldpc == ldpc && e.stpc == stpc &&
            e.instance == instance)
            return static_cast<int>(i);
    }
    return -1;
}

uint32_t
Mdst::allocate(Addr ldpc, Addr stpc, uint64_t instance, LoadId ldid,
               uint64_t stid, bool full, LoadId &displaced_load)
{
    displaced_load = kNoLoad;

    // Prefer the lowest invalid entry.
    const uint32_t n = static_cast<uint32_t>(entries.size());
    uint32_t victim = 0;
    while (victim < n && entries[victim].valid)
        ++victim;
    if (victim == n) {
        // Every entry is valid.  Scavenge the least recently allocated
        // full entry (its sync already completed from the store side
        // and may never be consumed); else every entry is waiting, so
        // steal the least recently allocated one and have the owner
        // release its load (incomplete synchronization, 4.4.2).
        uint32_t oldest = 0;
        uint32_t oldest_full = n;
        for (uint32_t i = 0; i < n; ++i) {
            if (stamps[i] < stamps[oldest])
                oldest = i;
            if (entries[i].full &&
                (oldest_full == n || stamps[i] < stamps[oldest_full]))
                oldest_full = i;
        }
        if (oldest_full < n) {
            victim = oldest_full;
        } else {
            victim = oldest;
            displaced_load = entries[victim].ldid;
        }
    }

    Entry &e = entries[victim];
    e.ldpc = ldpc;
    e.stpc = stpc;
    e.instance = instance;
    e.ldid = ldid;
    e.stid = stid;
    e.full = full;
    e.valid = true;
    stamps[victim] = ++tick;
    return victim;
}

void
Mdst::free(uint32_t idx)
{
    Entry &e = entries[idx];
    e.valid = false;
    e.full = false;
    e.ldid = kNoLoad;
}

void
Mdst::waitingFor(LoadId ldid, std::vector<uint32_t> &out) const
{
    for (uint32_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        if (e.valid && !e.full && e.ldid == ldid)
            out.push_back(i);
    }
}

size_t
Mdst::occupancy() const
{
    size_t n = 0;
    for (const Entry &e : entries)
        n += e.valid ? 1 : 0;
    return n;
}

} // namespace mdp
