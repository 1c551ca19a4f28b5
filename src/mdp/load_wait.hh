/**
 * @file
 * Per-load saturating-counter dependence prediction (21264-style load
 * wait table), packaged as a DepSynchronizer.
 *
 * A single direct-mapped table of small counters indexed by load PC.
 * A load whose counter has reached the threshold is predicted to
 * violate and simply waits for the store frontier -- there is no
 * store-side signalling at all, so synchronization is strictly
 * coarser than the MDPT/MDST's per-edge signals (the tradeoff the zoo
 * ablation measures).  Counters are trained up by mis-speculations and
 * decay only through periodic clearing (loadWaitClearInterval load
 * checks), as in the Alpha 21264.
 */

#ifndef MDP_MDP_LOAD_WAIT_HH
#define MDP_MDP_LOAD_WAIT_HH

#include <cstdint>
#include <vector>

#include "base/sat_counter.hh"
#include "mdp/config.hh"
#include "mdp/sync_unit.hh"

namespace mdp
{

class LoadWaitUnit : public DepSynchronizer
{
  public:
    explicit LoadWaitUnit(const SyncUnitConfig &config);

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

    const SyncStats &stats() const override { return st; }

    /** Loads currently parked on the table (diagnostics). */
    size_t waiting() const { return waiters.size(); }

  private:
    size_t tableIndex(Addr pc) const;

    /** Count one load check; periodically zero the counters (0
     *  disables clearing). */
    void tickClear();

    SyncUnitConfig cfg;
    std::vector<SatCounter> table;
    std::vector<LoadId> waiters;  ///< parked loads (frontier-released)
    uint64_t checksSinceClear = 0;
    SyncStats st;
};

} // namespace mdp

#endif // MDP_MDP_LOAD_WAIT_HH
