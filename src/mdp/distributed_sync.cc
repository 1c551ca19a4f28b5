#include "mdp/distributed_sync.hh"

#include "base/logging.hh"

namespace mdp
{

DistributedSyncUnit::DistributedSyncUnit(const SyncUnitConfig &config,
                                         unsigned num_copies)
{
    mdp_assert(num_copies > 0, "need at least one copy");
    copies.reserve(num_copies);
    for (unsigned i = 0; i < num_copies; ++i)
        copies.push_back(std::make_unique<CombinedSyncUnit>(config));
}

LoadCheck
DistributedSyncUnit::loadReady(Addr ldpc, Addr addr, uint64_t instance,
                               LoadId ldid, const TaskPcSource *tps)
{
    return copies[homeOf(instance)]->loadReady(ldpc, addr, instance,
                                               ldid, tps);
}

void
DistributedSyncUnit::storeReady(Addr stpc, Addr addr, uint64_t instance,
                                LoadId store_id,
                                std::vector<LoadId> &wakeups)
{
    // The store consults its local copy; only a local match triggers
    // the broadcast (section 4.4.5).  If copies have diverged and only
    // a remote copy knows the edge, the synchronization is missed --
    // that is the measurable cost of not broadcasting updates.
    CombinedSyncUnit &local = *copies[homeOf(instance)];
    if (!local.matchesStore(stpc)) {
        local.storeReady(stpc, addr, instance, store_id, wakeups);
        return;
    }
    for (auto &c : copies)
        c->storeReady(stpc, addr, instance, store_id, wakeups);
}

void
DistributedSyncUnit::misSpeculation(Addr ldpc, Addr stpc, uint32_t dist,
                                    Addr store_task_pc)
{
    // "As soon as a mis-speculation is detected, this fact is
    // broadcast to all copies of the MDPT."
    for (auto &c : copies)
        c->misSpeculation(ldpc, stpc, dist, store_task_pc);
}

void
DistributedSyncUnit::frontierRelease(LoadId ldid)
{
    // The release is local to the copy holding the wait; the others
    // ignore it (no pending entry for this ldid).
    for (auto &c : copies)
        c->frontierRelease(ldid);
}

void
DistributedSyncUnit::squash(LoadId min_ldid, uint64_t min_store_id)
{
    for (auto &c : copies)
        c->squash(min_ldid, min_store_id);
}

void
DistributedSyncUnit::drainReleasedLoads(std::vector<LoadId> &out)
{
    for (auto &c : copies)
        c->drainReleasedLoads(out);
}

const SyncStats &
DistributedSyncUnit::stats() const
{
    aggregated = SyncStats{};
    for (const auto &c : copies) {
        const SyncStats &s = c->stats();
        aggregated.loadChecks += s.loadChecks;
        aggregated.loadsPredicted += s.loadsPredicted;
        aggregated.loadsWaited += s.loadsWaited;
        aggregated.fullBypasses += s.fullBypasses;
        aggregated.storeChecks += s.storeChecks;
        aggregated.signalsDelivered += s.signalsDelivered;
        aggregated.storeAllocations += s.storeAllocations;
        aggregated.misSpecsRecorded += s.misSpecsRecorded;
        aggregated.frontierReleases += s.frontierReleases;
        aggregated.squashFrees += s.squashFrees;
        aggregated.evictionReleases += s.evictionReleases;
    }
    return aggregated;
}

} // namespace mdp
