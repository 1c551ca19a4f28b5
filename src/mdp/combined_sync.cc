#include "mdp/combined_sync.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mdp
{

CombinedSyncUnit::CombinedSyncUnit(const SyncUnitConfig &config)
    : cfg(config), mdpt(config),
      slots(config.numEntries,
            std::vector<Slot>(config.slotsPerEntry)),
      rowValid(config.numEntries, 0)
{
    mdp_assert(config.slotsPerEntry > 0,
               "combined organization needs at least one slot per entry");
}

CombinedSyncUnit::Slot *
CombinedSyncUnit::findSlot(uint32_t entry_idx, uint64_t tag)
{
    for (Slot &s : slots[entry_idx])
        if (s.valid && s.tag == tag)
            return &s;
    return nullptr;
}

CombinedSyncUnit::Slot &
CombinedSyncUnit::allocSlot(uint32_t entry_idx)
{
    auto &row = slots[entry_idx];
    // Invalid slot first.
    for (Slot &s : row)
        if (!s.valid)
            return s;
    // Scavenge the *stalest* full slot (smallest creating store):
    // retired instances leave unconsumed signals behind, and
    // reclaiming a fresh signal would strand its load until the
    // frontier clears.
    Slot *stale = nullptr;
    for (Slot &s : row) {
        if (s.full && (!stale || s.storeId < stale->storeId))
            stale = &s;
    }
    if (stale) {
        invalidateSlot(entry_idx, *stale);
        return *stale;
    }
    // Steal the first waiting slot; its load must be released.
    Slot &victim = row[0];
    if (victim.ldid != kNoLoad) {
        releasedQueue.push_back(victim.ldid);
        ++st.evictionReleases;
        detach(victim);
    }
    invalidateSlot(entry_idx, victim);
    return victim;
}

void
CombinedSyncUnit::attach(uint32_t entry_idx, Slot &slot, LoadId ldid)
{
    slot.ldid = ldid;
    const uint32_t *rec = pending.find(ldid);
    if (!rec) {
        uint32_t fresh;
        if (freeRecords.empty()) {
            fresh = static_cast<uint32_t>(pendingPool.size());
            pendingPool.emplace_back();
        } else {
            fresh = freeRecords.back();
            freeRecords.pop_back();
        }
        rec = &(pending[ldid] = fresh);
    }
    Pending &p = pendingPool[*rec];
    ++p.count;
    p.entries.push_back(entry_idx);
}

void
CombinedSyncUnit::detach(Slot &slot)
{
    if (slot.ldid == kNoLoad)
        return;
    if (const uint32_t *rec = pending.find(slot.ldid)) {
        Pending &p = pendingPool[*rec];
        if (p.count <= 1)
            freePending(slot.ldid, *rec);
        else
            --p.count;
    }
    slot.ldid = kNoLoad;
}

void
CombinedSyncUnit::freePending(LoadId ldid, uint32_t rec)
{
    Pending &p = pendingPool[rec];
    p.count = 0;
    p.entries.clear();
    freeRecords.push_back(rec);
    pending.erase(ldid);
}

void
CombinedSyncUnit::invalidateSlot(uint32_t entry_idx, Slot &slot)
{
    if (slot.valid)
        --rowValid[entry_idx];
    slot = Slot{};
}

void
CombinedSyncUnit::clearSlots(uint32_t entry_idx)
{
    for (Slot &s : slots[entry_idx]) {
        if (s.valid && !s.full && s.ldid != kNoLoad) {
            releasedQueue.push_back(s.ldid);
            ++st.evictionReleases;
            detach(s);
        }
        invalidateSlot(entry_idx, s);
    }
}

LoadCheck
CombinedSyncUnit::loadReady(Addr ldpc, Addr addr, uint64_t instance,
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
        Slot *s = findSlot(idx, tag);
        if (s && s->full) {
            // The store already executed and signalled: continue
            // without delay.  The condition variable is deliberately
            // NOT reset here (a deviation from the paper's figure 2):
            // if this load is squashed by an unrelated violation, its
            // re-execution must still find the flag set, or it would
            // wait for a signal that will never be repeated.  Stale
            // flags age out via oldest-first scavenging.
            //
            // The synchronization succeeded (merely early), so the
            // edge is strengthened, not weakened: the paper argues the
            // entry is still useful, and edges whose stores usually
            // win the race would otherwise see only weakens and decay
            // into a mis-speculation spiral.
            res.fullBypass = true;
            ++st.fullBypasses;
            mdpt.strengthen(idx);
        } else if (s) {
            // A waiting slot already exists for this instance.  A
            // stale ldid can only belong to a squashed prior attempt;
            // re-attach the current load.
            if (s->ldid != ldid)
                detach(*s);
            if (s->ldid == kNoLoad)
                attach(idx, *s, ldid);
            res.wait = true;
        } else {
            Slot &ns = allocSlot(idx);
            ns.valid = true;
            ++rowValid[idx];
            ns.full = false;
            ns.tag = tag;
            ns.storeId = 0;
            attach(idx, ns, ldid);
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
CombinedSyncUnit::storeReady(Addr stpc, Addr addr, uint64_t instance,
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
        Slot *s = findSlot(idx, tag);
        if (s && !s->full) {
            // A load is waiting (or a slot was left by a squashed
            // load); deliver the signal.  The full flag is SET rather
            // than the slot freed, so a squashed-and-reexecuted load
            // still finds the condition variable set.
            LoadId waiting = s->ldid;
            detach(*s);
            s->full = true;
            s->storeId = store_id;
            ++st.signalsDelivered;
            // The sync avoided a likely mis-speculation.
            mdpt.strengthen(idx);
            if (waiting != kNoLoad && !pending.contains(waiting))
                wakeups.push_back(waiting);
        } else if (s) {
            // Duplicate signal for the same instance; refresh.
            s->storeId = store_id;
        } else {
            // Load not seen yet: record the signal (full allocation,
            // figure 4 parts (e)/(f)).
            Slot &ns = allocSlot(idx);
            ns.valid = true;
            ++rowValid[idx];
            ns.full = true;
            ns.tag = tag;
            ns.ldid = kNoLoad;
            ns.storeId = store_id;
            ++st.storeAllocations;
        }
    }
}

void
CombinedSyncUnit::misSpeculation(Addr ldpc, Addr stpc, uint32_t dist,
                                 Addr store_task_pc)
{
    ++st.misSpecsRecorded;
    Mdpt::AllocResult res =
        mdpt.recordMisSpeculation(ldpc, stpc, dist, store_task_pc);
    if (res.evictedValid) {
        // The victim's slots belong to the displaced static edge.
        clearSlots(res.index);
    }
}

void
CombinedSyncUnit::frontierRelease(LoadId ldid)
{
    const uint32_t *rec = pending.find(ldid);
    if (!rec)
        return;
    // Visit only the entries this load ever attached to, ascending and
    // deduplicated -- the same order the full-table scan released in.
    // The swap hands the record entryBuf's spare capacity.
    entryBuf.swap(pendingPool[*rec].entries);
    std::sort(entryBuf.begin(), entryBuf.end());
    entryBuf.erase(std::unique(entryBuf.begin(), entryBuf.end()),
                   entryBuf.end());
    for (uint32_t e : entryBuf) {
        for (Slot &s : slots[e]) {
            if (s.valid && !s.full && s.ldid == ldid) {
                // The predicted store never came: false dependence,
                // so weaken the predictor behind it.
                for (unsigned w = 0; w < cfg.frontierReleasePenalty; ++w)
                    mdpt.weaken(e);
                detach(s);
                invalidateSlot(e, s);
                ++st.frontierReleases;
            }
        }
    }
    entryBuf.clear();
    if (const uint32_t *left = pending.find(ldid))
        freePending(ldid, *left);
}

void
CombinedSyncUnit::squash(LoadId min_ldid, uint64_t min_store_id)
{
    for (uint32_t e = 0; e < slots.size(); ++e) {
        if (rowValid[e] == 0)
            continue;
        for (Slot &s : slots[e]) {
            if (!s.valid)
                continue;
            if (!s.full && s.ldid != kNoLoad && s.ldid >= min_ldid) {
                detach(s);
                invalidateSlot(e, s);
                ++st.squashFrees;
            } else if (s.full && s.storeId >= min_store_id) {
                // Only signals from stores that were themselves
                // squashed are dropped; those stores re-execute and
                // re-signal.  Signals from surviving stores must be
                // kept, or the re-executed loads would starve.
                invalidateSlot(e, s);
                ++st.squashFrees;
            }
        }
    }
}

void
CombinedSyncUnit::drainReleasedLoads(std::vector<LoadId> &out)
{
    out.insert(out.end(), releasedQueue.begin(), releasedQueue.end());
    releasedQueue.clear();
}

} // namespace mdp
