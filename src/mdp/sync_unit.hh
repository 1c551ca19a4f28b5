/**
 * @file
 * The abstract dependence prediction + synchronization unit that the
 * timing models (Multiscalar, superscalar OoO) plug into, plus the
 * factory over the two organizations the paper discusses:
 *
 *  - Split: distinct MDPT and MDST structures (section 4).
 *  - Combined: a single structure where every prediction entry carries
 *    a fixed number of synchronization slots (section 5.5).
 */

#ifndef MDP_MDP_SYNC_UNIT_HH
#define MDP_MDP_SYNC_UNIT_HH

#include <memory>
#include <vector>

#include "mdp/config.hh"
#include "mdp/mdst.hh"
#include "trace/microop.hh"

namespace mdp
{

/**
 * Lets the ESYNC predictor ask for the PC of the task currently at a
 * given instance number (task id).  Implemented by the simulator.
 */
class TaskPcSource
{
  public:
    virtual ~TaskPcSource() = default;

    /** @return the task PC at the given instance, or 0 when unknown
     *  (not in flight / already retired). */
    virtual Addr taskPc(uint64_t instance) const = 0;
};

/** Outcome of consulting the unit when a load is ready to access
 *  memory. */
struct LoadCheck
{
    bool predicted = false;   ///< >=1 matching entry predicted sync
    bool wait = false;        ///< the load must block on >=1 slot
    bool fullBypass = false;  ///< proceeded thanks to a pre-set full flag
};

/** Aggregate synchronizer event counters. */
struct SyncStats
{
    uint64_t loadChecks = 0;
    uint64_t loadsPredicted = 0;
    uint64_t loadsWaited = 0;
    uint64_t fullBypasses = 0;
    uint64_t storeChecks = 0;
    uint64_t signalsDelivered = 0;
    uint64_t storeAllocations = 0;
    uint64_t misSpecsRecorded = 0;
    uint64_t frontierReleases = 0;
    uint64_t squashFrees = 0;
    uint64_t evictionReleases = 0;
};

/**
 * Interface between an out-of-order timing model and the dependence
 * prediction/synchronization hardware.
 *
 * Protocol (section 4.3), driven for both timing models by
 * ParkedLoads (mdp/parked_loads.hh):
 *  - Every load ready to access memory calls loadReady().  If the
 *    result says wait, the core parks the load until it is woken via
 *    storeReady() wakeups, drainReleasedLoads() (entry evicted), or
 *    until the core itself observes that all prior stores have
 *    executed and calls frontierRelease().
 *  - Every executing store calls storeReady(); loads whose every
 *    pending synchronization was satisfied are appended to wakeups.
 *  - A detected violation calls misSpeculation(); squashed state is
 *    cleared with squash().
 */
class DepSynchronizer
{
  public:
    virtual ~DepSynchronizer() = default;

    /**
     * Consult (and update) the unit for a load about to access memory.
     *
     * @param ldpc     static load PC
     * @param addr     effective address (used by address tagging)
     * @param instance instance number (task id in Multiscalar)
     * @param ldid     dynamic load identifier for wakeup/squash
     * @param tps      task-PC oracle for the path check (may be null)
     */
    virtual LoadCheck loadReady(Addr ldpc, Addr addr, uint64_t instance,
                                LoadId ldid, const TaskPcSource *tps) = 0;

    /**
     * Notify the unit that a store is executing; appends any loads that
     * become free to continue to @p wakeups.
     * @param store_id dynamic store identifier (used to age full flags
     *        and to invalidate exactly the squashed signals)
     */
    virtual void storeReady(Addr stpc, Addr addr, uint64_t instance,
                            LoadId store_id,
                            std::vector<LoadId> &wakeups) = 0;

    /** Record a detected mis-speculation on a static edge. */
    virtual void misSpeculation(Addr ldpc, Addr stpc, uint32_t dist,
                                Addr store_task_pc) = 0;

    /**
     * A blocked load was released by the core because all prior stores
     * are known to have executed (incomplete synchronization,
     * section 4.4.2).  Frees its entries and weakens the predictors
     * that caused the false dependence prediction.
     */
    virtual void frontierRelease(LoadId ldid) = 0;

    /**
     * Squash cleanup (section 4.4.3): drop waiting entries of loads
     * with id >= @p min_ldid and full flags set by stores with id >=
     * @p min_store_id (those stores re-execute and re-signal; flags
     * from surviving stores are kept).
     */
    virtual void squash(LoadId min_ldid, uint64_t min_store_id) = 0;

    /**
     * Loads released as a side effect of entry eviction; the core must
     * treat them like frontier releases (they will get no signal).
     */
    virtual void drainReleasedLoads(std::vector<LoadId> &out) = 0;

    virtual const SyncStats &stats() const = 0;
};

/** Table organization selector. */
enum class SyncOrganization
{
    Combined,     ///< one structure, per-stage slots (section 5.5)
    Split,        ///< distinct MDPT + MDST (section 4)
    Distributed,  ///< identical per-stage copies (section 4.4.5)
};

/** Build a synchronizer over the given configuration. */
std::unique_ptr<DepSynchronizer>
makeSynchronizer(const SyncUnitConfig &cfg,
                 SyncOrganization org = SyncOrganization::Combined);

} // namespace mdp

#endif // MDP_MDP_SYNC_UNIT_HH
