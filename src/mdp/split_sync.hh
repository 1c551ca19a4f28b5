/**
 * @file
 * The split organization of section 4: a distinct MDPT (prediction)
 * and MDST (synchronization pool), with the inter-table protocol of the
 * working example in section 4.3.
 */

#ifndef MDP_MDP_SPLIT_SYNC_HH
#define MDP_MDP_SPLIT_SYNC_HH

#include <vector>

#include "base/flat_hash.hh"
#include "mdp/mdpt.hh"
#include "mdp/mdst.hh"
#include "mdp/sync_unit.hh"

namespace mdp
{

/**
 * DepSynchronizer implemented with separate MDPT and MDST structures.
 */
class SplitSyncUnit : public DepSynchronizer
{
  public:
    explicit SplitSyncUnit(const SyncUnitConfig &config);

    LoadCheck loadReady(Addr ldpc, Addr addr, uint64_t instance,
                        LoadId ldid, const TaskPcSource *tps) override;

    void storeReady(Addr stpc, Addr addr, uint64_t instance,
                    LoadId store_id, std::vector<LoadId> &wakeups) override;

    void misSpeculation(Addr ldpc, Addr stpc, uint32_t dist,
                        Addr store_task_pc) override;

    void frontierRelease(LoadId ldid) override;

    void squash(LoadId min_ldid, uint64_t min_store_id) override;

    void drainReleasedLoads(std::vector<LoadId> &out) override;

    const SyncStats &stats() const override { return st; }

    const Mdpt &predictionTable() const { return mdpt; }

    size_t numWaitingLoads() const { return pending.size(); }

  private:
    /** Remove a waiting load from the pending map (one slot's worth);
     *  no wakeup is generated. */
    void unpend(LoadId ldid);

    SyncUnitConfig cfg;
    Mdpt mdpt;
    Mdst mdst;
    /** Waiting load -> how many MDST slots it waits on. */
    FlatHashMap<LoadId, uint32_t> pending;
    std::vector<LoadId> releasedQueue;
    std::vector<uint32_t> matchBuf;
    std::vector<uint32_t> waitBuf;
    SyncStats st;
};

} // namespace mdp

#endif // MDP_MDP_SPLIT_SYNC_HH
