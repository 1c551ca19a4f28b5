#include "mdp/split_sync.hh"

#include "base/logging.hh"

namespace mdp
{

SplitSyncUnit::SplitSyncUnit(const SyncUnitConfig &config)
    : cfg(config), mdpt(config), mdst(config.mdstEntries)
{}

void
SplitSyncUnit::unpend(LoadId ldid)
{
    uint32_t *slots = pending.find(ldid);
    if (!slots)
        return;
    if (*slots <= 1)
        pending.erase(ldid);
    else
        --*slots;
}

LoadCheck
SplitSyncUnit::loadReady(Addr ldpc, Addr addr, uint64_t instance,
                         LoadId ldid, const TaskPcSource *tps)
{
    ++st.loadChecks;
    LoadCheck res;

    matchBuf.clear();
    mdpt.lookupLoad(ldpc, matchBuf);
    for (uint32_t idx : matchBuf) {
        Mdpt::Entry &e = mdpt.entry(idx);
        if (!mdpt.predicts(idx))
            continue;
        if (!mdpt.pathMatches(e, instance, tps))
            continue;

        res.predicted = true;
        mdpt.touch(idx);
        uint64_t tag = mdpt.loadTag(instance, addr);
        int slot = mdst.find(e.ldpc, e.stpc, tag);
        if (slot >= 0 && mdst.entry(slot).full) {
            // Keep the flag set (see the combined organization): a
            // squashed-and-reexecuted load must still find it.  The
            // early signal is a success, so strengthen, as there.
            res.fullBypass = true;
            ++st.fullBypasses;
            mdpt.strengthen(idx);
        } else if (slot >= 0) {
            const Mdst::Entry &se = mdst.entry(slot);
            if (se.ldid != ldid) {
                if (se.ldid != kNoLoad)
                    unpend(se.ldid);
                mdst.setLdid(slot, ldid);
                ++pending[ldid];
            }
            res.wait = true;
        } else {
            LoadId displaced = kNoLoad;
            mdst.allocate(e.ldpc, e.stpc, tag, ldid, /*stid=*/0,
                          /*full=*/false, displaced);
            if (displaced != kNoLoad && displaced != ldid) {
                unpend(displaced);
                if (!pending.contains(displaced)) {
                    releasedQueue.push_back(displaced);
                    ++st.evictionReleases;
                }
            }
            ++pending[ldid];
            res.wait = true;
        }
    }

    if (res.predicted)
        ++st.loadsPredicted;
    if (res.wait)
        ++st.loadsWaited;
    return res;
}

void
SplitSyncUnit::storeReady(Addr stpc, Addr addr, uint64_t instance,
                          LoadId store_id, std::vector<LoadId> &wakeups)
{
    ++st.storeChecks;

    matchBuf.clear();
    mdpt.lookupStore(stpc, matchBuf);
    for (uint32_t idx : matchBuf) {
        Mdpt::Entry &e = mdpt.entry(idx);
        // Stores initiate synchronization on any match (section 4.3);
        // the prediction gate applies on the load side only.  Signals
        // to edges that currently predict "no dependence" simply leave
        // a full flag that is consumed or scavenged.
        mdpt.touch(idx);
        uint64_t tag = mdpt.storeTag(e, instance, addr);
        int slot = mdst.find(e.ldpc, e.stpc, tag);
        if (slot >= 0 && !mdst.entry(slot).full) {
            // Deliver the signal but keep the entry full (see the
            // combined organization): a squashed-and-reexecuted load
            // must still find the condition variable set.
            LoadId waiting = mdst.entry(slot).ldid;
            mdst.setLdid(slot, kNoLoad);
            mdst.setStid(slot, store_id);
            mdst.signal(slot);
            ++st.signalsDelivered;
            // The sync avoided a likely mis-speculation.
            mdpt.strengthen(idx);
            if (waiting != kNoLoad) {
                unpend(waiting);
                if (!pending.contains(waiting))
                    wakeups.push_back(waiting);
            }
        } else if (slot >= 0) {
            mdst.setStid(slot, store_id);
        } else {
            LoadId displaced = kNoLoad;
            mdst.allocate(e.ldpc, e.stpc, tag, kNoLoad, store_id,
                          /*full=*/true, displaced);
            if (displaced != kNoLoad) {
                unpend(displaced);
                if (!pending.contains(displaced)) {
                    releasedQueue.push_back(displaced);
                    ++st.evictionReleases;
                }
            }
            ++st.storeAllocations;
        }
    }
}

void
SplitSyncUnit::misSpeculation(Addr ldpc, Addr stpc, uint32_t dist,
                              Addr store_task_pc)
{
    ++st.misSpecsRecorded;
    // Evicting a prediction entry leaves its MDST entries in place:
    // no store can signal them any more.  The MDST's own replacement
    // reclaims them (full entries first).  A load still waiting on one
    // is released by the frontier path (frontierRelease) once every
    // prior store has executed, or earlier if its entry is stolen.
    mdpt.recordMisSpeculation(ldpc, stpc, dist, store_task_pc);
}

void
SplitSyncUnit::frontierRelease(LoadId ldid)
{
    if (!pending.contains(ldid))
        return;
    waitBuf.clear();
    mdst.waitingFor(ldid, waitBuf);
    for (uint32_t slot : waitBuf) {
        // The predicted store never came: weaken the predictor
        // entry behind the false dependence prediction.
        const Mdst::Entry &se = mdst.entry(slot);
        matchBuf.clear();
        mdpt.lookupLoad(se.ldpc, matchBuf);
        for (uint32_t idx : matchBuf) {
            if (mdpt.entry(idx).stpc == se.stpc) {
                for (unsigned w = 0; w < cfg.frontierReleasePenalty;
                     ++w) {
                    mdpt.weaken(idx);
                }
                break;
            }
        }
        mdst.free(slot);
        ++st.frontierReleases;
    }
    pending.erase(ldid);
}

void
SplitSyncUnit::squash(LoadId min_ldid, uint64_t min_store_id)
{
    for (uint32_t i = 0; i < mdst.capacity(); ++i) {
        const Mdst::Entry &e = mdst.entry(i);
        const bool doomed =
            e.full ? e.stid >= min_store_id
                   : e.ldid != kNoLoad && e.ldid >= min_ldid;
        if (!e.valid || !doomed)
            continue;
        if (!e.full)
            unpend(e.ldid);
        mdst.free(i);
        ++st.squashFrees;
    }
}

void
SplitSyncUnit::drainReleasedLoads(std::vector<LoadId> &out)
{
    out.insert(out.end(), releasedQueue.begin(), releasedQueue.end());
    releasedQueue.clear();
}

} // namespace mdp
