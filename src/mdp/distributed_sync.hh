/**
 * @file
 * The distributed organization of section 4.4.5: identical copies of
 * the MDPT and MDST at each source of memory accesses (one per
 * processing stage), so that no single structure needs the port
 * bandwidth of the whole processor.
 *
 * Protocol, per the paper:
 *  - a load uses only its local copy;
 *  - a detected mis-speculation is broadcast to all copies, each of
 *    which allocates an entry;
 *  - a store that matches its local MDPT broadcasts the identifying
 *    information to all MDST copies, each of which searches for an
 *    allocated synchronization entry;
 *  - prediction updates would also have to be broadcast to keep a
 *    similar view.  We deliberately relax this last point (local
 *    updates only) and expose the resulting divergence as a measurable
 *    cost -- see the A5 ablation.
 */

#ifndef MDP_MDP_DISTRIBUTED_SYNC_HH
#define MDP_MDP_DISTRIBUTED_SYNC_HH

#include <memory>
#include <vector>

#include "mdp/combined_sync.hh"
#include "mdp/sync_unit.hh"

namespace mdp
{

/**
 * DepSynchronizer implemented as per-stage copies of the combined
 * unit.  A dynamic instance (task) with number i is handled by copy
 * i mod numCopies -- the copy co-located with the stage executing it.
 */
class DistributedSyncUnit : public DepSynchronizer
{
  public:
    /**
     * @param config  Per-copy configuration (each copy has the full
     *                numEntries, as in the paper: identical copies).
     * @param num_copies Number of memory-access sources (stages).
     */
    DistributedSyncUnit(const SyncUnitConfig &config,
                        unsigned num_copies);

    LoadCheck loadReady(Addr ldpc, Addr addr, uint64_t instance,
                        LoadId ldid, const TaskPcSource *tps) override;

    void storeReady(Addr stpc, Addr addr, uint64_t instance,
                    LoadId store_id,
                    std::vector<LoadId> &wakeups) override;

    void misSpeculation(Addr ldpc, Addr stpc, uint32_t dist,
                        Addr store_task_pc) override;

    void frontierRelease(LoadId ldid) override;

    void squash(LoadId min_ldid, uint64_t min_store_id) override;

    void drainReleasedLoads(std::vector<LoadId> &out) override;

    const SyncStats &stats() const override;

    unsigned numCopies() const
    {
        return static_cast<unsigned>(copies.size());
    }

    /** Access one copy (tests / introspection). */
    const CombinedSyncUnit &copy(unsigned idx) const
    {
        return *copies[idx];
    }

  private:
    unsigned homeOf(uint64_t instance) const
    {
        return static_cast<unsigned>(instance % copies.size());
    }

    std::vector<std::unique_ptr<CombinedSyncUnit>> copies;
    mutable SyncStats aggregated;
};

} // namespace mdp

#endif // MDP_MDP_DISTRIBUTED_SYNC_HH
