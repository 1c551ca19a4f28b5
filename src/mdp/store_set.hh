/**
 * @file
 * Store-set dependence prediction (Chrysos & Moshovos-lineage), the
 * MDPT/MDST's best-known descendant, packaged as a DepSynchronizer so
 * both timing models can drive it unmodified.
 *
 * Two direct-mapped structures:
 *
 *  - SSIT (store-set identifier table): static PC -> SSID.  Loads and
 *    stores that ever mis-speculated against each other are merged
 *    into one set (minimum-SSID rule on a collision).
 *  - LFST (last-fetched-store table): one slot per SSID holding either
 *    waiting loads of the set or a full flag left by a set store that
 *    executed with no waiter present (consumed by the next load).
 *
 * A predicted load (valid SSID) waits for the next executing store of
 * its set; the core's frontier release frees it if no such store ever
 * signals.  Cyclic clearing wipes both tables every
 * ssitClearInterval events so stale merges decay -- the cleared
 * waiters surface through drainReleasedLoads() like any eviction.
 */

#ifndef MDP_MDP_STORE_SET_HH
#define MDP_MDP_STORE_SET_HH

#include <cstdint>
#include <vector>

#include "mdp/config.hh"
#include "mdp/sync_unit.hh"

namespace mdp
{

class StoreSetUnit : public DepSynchronizer
{
  public:
    explicit StoreSetUnit(const SyncUnitConfig &config);

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

    /** Assigned (live) SSIDs since the last clear (diagnostics). */
    uint32_t liveSets() const { return nextSsid; }

  private:
    static constexpr uint32_t kNoSsid = UINT32_MAX;

    struct LfstEntry
    {
        bool full = false;          ///< set store executed, unclaimed
        uint64_t fullStoreId = 0;   ///< who set it (squash filtering)
        std::vector<LoadId> waiters;
    };

    size_t ssitIndex(Addr pc) const;

    /** Count one table event; cyclically clear when the interval is
     *  reached (0 disables clearing). */
    void tickClear();

    SyncUnitConfig cfg;
    std::vector<uint32_t> ssit;   ///< SSID per slot, kNoSsid if invalid
    std::vector<LfstEntry> lfst;  ///< one slot per SSID
    uint32_t nextSsid = 0;        ///< next SSID to hand out (wraps)
    uint64_t eventsSinceClear = 0;
    std::vector<LoadId> released; ///< pending eviction releases
    SyncStats st;
};

} // namespace mdp

#endif // MDP_MDP_STORE_SET_HH
