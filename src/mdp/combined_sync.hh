/**
 * @file
 * The combined MDPT+MDST organization of section 5.5: one structure in
 * which each prediction entry carries a fixed number of synchronization
 * slots (one per stage).  Supports multiple dependences per static load
 * or store via multiple prediction entries, with a single sync slot per
 * static dependence and per stage.
 */

#ifndef MDP_MDP_COMBINED_SYNC_HH
#define MDP_MDP_COMBINED_SYNC_HH

#include <vector>

#include "base/flat_hash.hh"
#include "mdp/mdpt.hh"
#include "mdp/sync_unit.hh"

namespace mdp
{

/**
 * DepSynchronizer implemented as a prediction table whose entries own
 * their synchronization slots.
 */
class CombinedSyncUnit : public DepSynchronizer
{
  public:
    explicit CombinedSyncUnit(const SyncUnitConfig &config);

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

    /** Expose the prediction table for tests and introspection. */
    const Mdpt &predictionTable() const { return mdpt; }

    /** @return true if any prediction entry matches this store PC. */
    bool matchesStore(Addr stpc) const { return mdpt.matchesStore(stpc); }

    /** Number of loads currently blocked on at least one slot. */
    size_t numWaitingLoads() const { return pending.size(); }

  private:
    struct Slot
    {
        uint64_t tag = 0;         ///< instance (distance) or addr hash
        LoadId ldid = kNoLoad;    ///< waiting load, when empty
        uint64_t storeId = 0;     ///< signalling store (age + squash)
        bool full = false;
        bool valid = false;
    };

    /** Per waiting load: slot count plus the entries holding them.
     *  `entries` may carry stale or duplicate indices (detach does not
     *  prune it); frontierRelease sorts, dedupes and re-checks.  The
     *  records are pooled, and a freed one keeps its vector's
     *  capacity, so a wait allocates nothing once the pool has grown
     *  to the peak number of waiting loads. */
    struct Pending
    {
        uint32_t count = 0;
        std::vector<uint32_t> entries;
    };

    Slot *findSlot(uint32_t entry_idx, uint64_t tag);

    /** Get a free slot in the entry, scavenging per section 4.4.2. */
    Slot &allocSlot(uint32_t entry_idx);

    /** Bind a load to a slot, tracking it for frontierRelease. */
    void attach(uint32_t entry_idx, Slot &slot, LoadId ldid);

    /** Detach a waiting load from a slot (no wakeup bookkeeping). */
    void detach(Slot &slot);

    /** Stop tracking waiting load @p ldid held in record @p rec. */
    void freePending(LoadId ldid, uint32_t rec);

    /** Invalidate a slot, keeping the row's valid count coherent. */
    void invalidateSlot(uint32_t entry_idx, Slot &slot);

    /** Free every slot of an entry, releasing waiting loads. */
    void clearSlots(uint32_t entry_idx);

    SyncUnitConfig cfg;
    Mdpt mdpt;
    std::vector<std::vector<Slot>> slots;   ///< parallel to MDPT entries
    std::vector<uint32_t> rowValid;         ///< valid slots per entry
    /** Waiting load -> its record in pendingPool. */
    FlatHashMap<LoadId, uint32_t> pending;
    std::vector<Pending> pendingPool;
    std::vector<uint32_t> freeRecords;
    std::vector<LoadId> releasedQueue;
    std::vector<uint32_t> matchBuf;
    std::vector<uint32_t> entryBuf;
    SyncStats st;
};

} // namespace mdp

#endif // MDP_MDP_COMBINED_SYNC_HH
