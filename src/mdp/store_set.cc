#include "mdp/store_set.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/random.hh"

namespace mdp
{

StoreSetUnit::StoreSetUnit(const SyncUnitConfig &config)
    : cfg(config), ssit(config.ssitEntries, kNoSsid),
      lfst(config.lfstEntries)
{
    mdp_assert(cfg.ssitEntries > 0, "SSIT must have at least one entry");
    mdp_assert(cfg.lfstEntries > 0, "LFST must have at least one entry");
}

size_t
StoreSetUnit::ssitIndex(Addr pc) const
{
    return static_cast<size_t>(mix64(pc)) % ssit.size();
}

void
StoreSetUnit::tickClear()
{
    if (cfg.ssitClearInterval == 0)
        return;
    if (++eventsSinceClear < cfg.ssitClearInterval)
        return;
    eventsSinceClear = 0;
    std::fill(ssit.begin(), ssit.end(), kNoSsid);
    for (LfstEntry &e : lfst) {
        for (LoadId l : e.waiters) {
            released.push_back(l);
            ++st.evictionReleases;
        }
        e = LfstEntry{};
    }
    nextSsid = 0;
}

LoadCheck
StoreSetUnit::loadReady(Addr ldpc, Addr addr, uint64_t instance,
                        LoadId ldid, const TaskPcSource *tps)
{
    (void)addr;
    (void)instance;
    (void)tps;
    ++st.loadChecks;
    tickClear();

    LoadCheck r;
    uint32_t ssid = ssit[ssitIndex(ldpc)];
    if (ssid == kNoSsid)
        return r;

    r.predicted = true;
    ++st.loadsPredicted;
    LfstEntry &e = lfst[ssid % lfst.size()];
    if (e.full) {
        // A set store already executed: the dependence (if any) is
        // satisfied; consume the flag and proceed without delay.
        e.full = false;
        r.fullBypass = true;
        ++st.fullBypasses;
        return r;
    }
    r.wait = true;
    ++st.loadsWaited;
    e.waiters.push_back(ldid);
    return r;
}

void
StoreSetUnit::storeReady(Addr stpc, Addr addr, uint64_t instance,
                         LoadId store_id, std::vector<LoadId> &wakeups)
{
    (void)addr;
    (void)instance;
    ++st.storeChecks;
    tickClear();

    uint32_t ssid = ssit[ssitIndex(stpc)];
    if (ssid == kNoSsid)
        return;
    LfstEntry &e = lfst[ssid % lfst.size()];
    if (!e.waiters.empty()) {
        for (LoadId l : e.waiters) {
            wakeups.push_back(l);
            ++st.signalsDelivered;
        }
        e.waiters.clear();
        // The woken loads re-check at issue and consume this flag
        // (fullBypass), per the model-side wake handshake.
        e.full = true;
        e.fullStoreId = store_id;
        return;
    }
    // No waiter yet: leave a full flag for the next load of the set.
    e.full = true;
    e.fullStoreId = store_id;
    ++st.storeAllocations;
}

void
StoreSetUnit::misSpeculation(Addr ldpc, Addr stpc, uint32_t dist,
                             Addr store_task_pc)
{
    (void)dist;
    (void)store_task_pc;
    ++st.misSpecsRecorded;

    const size_t li = ssitIndex(ldpc);
    const size_t si = ssitIndex(stpc);
    const uint32_t ls = ssit[li];
    const uint32_t ss = ssit[si];

    // Chrysos/Emer merge rules: unassigned pairs get a fresh SSID,
    // a one-sided assignment is copied, and two distinct sets merge
    // into the smaller SSID.
    uint32_t merged;
    if (ls == kNoSsid && ss == kNoSsid) {
        merged = nextSsid;
        nextSsid = static_cast<uint32_t>((nextSsid + 1) % lfst.size());
    } else if (ls == kNoSsid) {
        merged = ss;
    } else if (ss == kNoSsid) {
        merged = ls;
    } else {
        merged = std::min(ls, ss);
    }
    ssit[li] = merged;
    ssit[si] = merged;
}

void
StoreSetUnit::frontierRelease(LoadId ldid)
{
    // The core released the load (all prior stores executed without a
    // set store signalling); drop its parked entry wherever it is.
    ++st.frontierReleases;
    for (LfstEntry &e : lfst)
        std::erase(e.waiters, ldid);
}

void
StoreSetUnit::squash(LoadId min_ldid, uint64_t min_store_id)
{
    for (LfstEntry &e : lfst) {
        size_t before = e.waiters.size();
        std::erase_if(e.waiters,
                      [&](LoadId l) { return l >= min_ldid; });
        st.squashFrees += before - e.waiters.size();
        if (e.full && e.fullStoreId >= min_store_id) {
            // The store that left the flag is being re-executed; it
            // will re-signal.
            e.full = false;
            ++st.squashFrees;
        }
    }
}

void
StoreSetUnit::drainReleasedLoads(std::vector<LoadId> &out)
{
    out.insert(out.end(), released.begin(), released.end());
    released.clear();
}

} // namespace mdp
