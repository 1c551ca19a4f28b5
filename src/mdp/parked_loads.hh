/**
 * @file
 * The model side of the section 4.3 load-wait protocol, shared by
 * both timing models.
 *
 * A load the DependencePolicy tells to block is parked here on one of
 * three wait lists: the store frontier (BlockFrontier), one producer
 * store (BlockProducer), or an MDST condition variable (BlockSync).
 * It leaves by one of five events, reported to the model as a
 * (seq, LoadRelease) callback: its producer store executed, the
 * predicted store signalled, every prior store executed (plain, or
 * incomplete synchronization, section 4.4.2), or its synchronizer
 * entry was evicted.  A squash (section 4.4.3) forgets the waits of
 * squashed loads without a callback.
 *
 * The component owns the wait lists, the scan gating, the op-state
 * bits of a parked load, and every synchronizer call these events
 * make (storeReady, frontierRelease, drainReleasedLoads, squash).  The
 * model keeps what differs: how it computes the store-frontier bound
 * and what a release means to it (counters, classification, waking a
 * stage).  Callbacks are template parameters, so the per-cycle scan
 * and the store wakeups inline into the model's loop.
 */

#ifndef MDP_MDP_PARKED_LOADS_HH
#define MDP_MDP_PARKED_LOADS_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/soa_lanes.hh"
#include "mdp/dep_policy.hh"
#include "mdp/sync_unit.hh"
#include "trace/microop.hh"

namespace mdp
{

/** Why a parked load was released. */
enum class LoadRelease
{
    Producer,      ///< its producer store executed (BlockProducer)
    Signal,        ///< the predicted store signalled (BlockSync)
    Frontier,      ///< every prior store executed (BlockFrontier)
    SyncFrontier,  ///< the same, for a BlockSync wait (section 4.4.2)
    Eviction,      ///< its synchronizer entry was evicted (BlockSync)
};

/**
 * The wait lists of one timing model's blocked loads.  It reads and
 * writes the low flag bits of the model's OpLanes; the model defines
 * its own flags from kFirstModelBit up.
 */
class ParkedLoads
{
  public:
    // Op-state bits of the protocol.
    static constexpr uint16_t kBlockedSync = 1 << 0;
    static constexpr uint16_t kBlockedFrontier = 1 << 1;
    static constexpr uint16_t kBlockedProducer = 1 << 2;
    /** Synchronization already satisfied (frontier or eviction
     *  release): the load must not re-consult the synchronizer. */
    static constexpr uint16_t kSyncDone = 1 << 3;
    /** Any wait: the op is out of the model's issue scan. */
    static constexpr uint16_t kBlocked =
        kBlockedSync | kBlockedFrontier | kBlockedProducer;
    /** The lowest flag bit the model may use. */
    static constexpr unsigned kFirstModelBit = 4;

    /**
     * @param lanes      the model's per-op state
     * @param unit       the synchronizer (null for policies without)
     * @param window_cap the most loads in flight; pre-sizes the lists
     *                   so the cycle loop stays allocation-free
     */
    ParkedLoads(OpLanes &lanes, DepSynchronizer *unit, size_t window_cap);

    /** Park @p seq as @p d says.  @return false when @p d does not
     *  block (the load issues). */
    bool park(SeqNum seq, const LoadDecision &d);

    /**
     * Store @p seq executed: release the loads waiting for it as their
     * producer, then signal the synchronizer and release the loads
     * whose every pending synchronization is now satisfied.
     */
    template <class Released>
    void storeExecuted(Addr stpc, Addr addr, uint64_t instance,
                       SeqNum seq, Released &&released);

    /**
     * Release every frontier or synchronization wait of a load
     * @c seq <= @p bound, where @p bound is the sequence number of the
     * oldest unexecuted store (UINT64_MAX when none).  A BlockSync
     * release calls frontierRelease() and marks the load kSyncDone.
     */
    template <class Released>
    void scan(uint64_t bound, Released &&released);

    /** Release the loads the synchronizer let go by evicting their
     *  entries (they get no signal); marks them kSyncDone. */
    template <class Released>
    void drainEvictions(Released &&released);

    /**
     * Forget every wait of a load >= @p from and every producer wait
     * on a store >= @p from, then squash the synchronizer from there.
     * The model's store frontier may move backwards after this.
     */
    void squash(SeqNum from);

  private:
    static SeqNum minOf(const std::vector<SeqNum> &list);

    OpLanes &lanes;
    DepSynchronizer *unit;

    std::vector<SeqNum> frontierList;  ///< BlockFrontier waits
    std::vector<SeqNum> syncList;      ///< BlockSync waits

    /**
     * Scan gating.  Every frontierList entry has seq > lastBound: it
     * failed the frontier check at park time, and survivors of a scan
     * failed it against that scan's bound.  The bound never decreases
     * except across a squash, which sets dirty.  So an unmoved bound
     * releases nothing from frontierList.  syncList waits come from
     * the predictor, not a frontier check, so a park since the last
     * scan (syncPushed) forces a scan of that list.
     *
     * A scan releases only seqs <= bound, so a list whose minimum
     * (kNoSeq when empty) is above the bound is skipped outright --
     * the common case on wide machines, where the bound moves every
     * commit but the blocked window trails far behind it.  A skipped
     * list only defers dropping entries already released by a signal
     * or eviction; those release nothing either way.
     */
    uint64_t lastBound = 0;
    bool dirty = true;
    bool syncPushed = false;
    SeqNum frontierMin = kNoSeq;
    SeqNum syncMin = kNoSeq;

    /** BlockProducer waits as (producer, load) pairs in park order;
     *  a store releases its loads in that order. */
    std::vector<std::pair<SeqNum, SeqNum>> producerWaits;

    /** Scratch for the synchronizer's storeReady / drain output. */
    std::vector<LoadId> wakeups;
};

template <class Released>
void
ParkedLoads::storeExecuted(Addr stpc, Addr addr, uint64_t instance,
                           SeqNum seq, Released &&released)
{
    std::erase_if(producerWaits, [&](const auto &w) {
        if (w.first != seq)
            return false;
        if (lanes.test(w.second, kBlockedProducer)) {
            lanes.clear(w.second, kBlockedProducer);
            released(w.second, LoadRelease::Producer);
        }
        return true;
    });

    if (!unit)
        return;
    wakeups.clear();
    unit->storeReady(stpc, addr, instance, seq, wakeups);
    for (LoadId l : wakeups) {
        // Left in syncList; the next scan of that list drops it.
        if (lanes.test(l, kBlockedSync)) {
            lanes.clear(l, kBlockedSync);
            released(l, LoadRelease::Signal);
        }
    }
}

template <class Released>
void
ParkedLoads::scan(uint64_t bound, Released &&released)
{
    const bool moved = bound != lastBound || dirty;
    if (!moved && !syncPushed)
        return;

    if (moved && bound >= frontierMin) {
        std::erase_if(frontierList, [&](SeqNum seq) {
            if (!lanes.test(seq, kBlockedFrontier))
                return true;
            if (bound < seq)
                return false;
            lanes.clear(seq, kBlockedFrontier);
            released(seq, LoadRelease::Frontier);
            return true;
        });
        frontierMin = minOf(frontierList);
    }

    if (bound >= syncMin) {
        std::erase_if(syncList, [&](SeqNum seq) {
            if (!lanes.test(seq, kBlockedSync))
                return true;   // signalled or evicted since it parked
            if (bound < seq)
                return false;
            // Incomplete synchronization: the predicted store never
            // signalled, but the load is provably safe now.
            unit->frontierRelease(seq);
            lanes.clear(seq, kBlockedSync);
            lanes.set(seq, kSyncDone);
            released(seq, LoadRelease::SyncFrontier);
            return true;
        });
        syncMin = minOf(syncList);
    }

    lastBound = bound;
    dirty = false;
    syncPushed = false;
}

template <class Released>
void
ParkedLoads::drainEvictions(Released &&released)
{
    if (!unit)
        return;
    wakeups.clear();
    unit->drainReleasedLoads(wakeups);
    for (LoadId l : wakeups) {
        if (lanes.test(l, kBlockedSync)) {
            lanes.clear(l, kBlockedSync);
            lanes.set(l, kSyncDone);
            released(l, LoadRelease::Eviction);
        }
    }
}

} // namespace mdp

#endif // MDP_MDP_PARKED_LOADS_HH
