/**
 * @file
 * The Memory Dependence Prediction Table (MDPT) of section 4.1.
 *
 * An entry identifies a static store-load dependence edge and predicts
 * whether its future dynamic instances should be synchronized.  Fields
 * per entry: valid flag (V), load PC (LDPC), store PC (STPC), dependence
 * distance (DIST) and an optional prediction field.  Our prediction
 * field is either absent (AlwaysSync), a saturating counter (SYNC), or
 * a counter plus the producing task's PC (ESYNC).
 */

#ifndef MDP_MDP_MDPT_HH
#define MDP_MDP_MDPT_HH

#include <cstdint>
#include <vector>

#include "base/flat_hash.hh"
#include "base/lru.hh"
#include "base/random.hh"
#include "base/sat_counter.hh"
#include "mdp/config.hh"
#include "trace/microop.hh"

namespace mdp
{

class TaskPcSource;

/**
 * Fully-associative prediction table with LRU replacement.
 *
 * Match order is a stated rule: lookupLoad() and lookupStore() return
 * the matching entries most recently allocated first.  The sync units
 * touch, attach and release entries in that order, so it reaches
 * results.
 *
 * Eviction of an entry with live synchronization state is handled by
 * the owner: recordMisSpeculation() reports the victim index so the
 * owner can release any waiting loads attached to it.
 */
class Mdpt
{
  public:
    struct Entry
    {
        Addr ldpc = 0;
        Addr stpc = 0;
        uint32_t dist = 0;
        Addr storeTaskPc = 0;   ///< path context (ESYNC only)
        SatCounter counter;
        /** Confidence that the producing task PC is stable across
         *  mis-speculations.  When it is not (the dependence fires on
         *  every path), the path check would randomly suppress valid
         *  synchronizations, so ESYNC falls back to counter-only
         *  behaviour for this edge -- this is what guarantees the
         *  paper's observation that SYNC never outperforms ESYNC. */
        SatCounter pathStable;
        /** Hysteresis on DIST: a single violation at an unusual
         *  distance (e.g. the rare iteration whose store was skipped,
         *  making the real producer two iterations back) must not
         *  corrupt the stable distance, or every subsequent signal
         *  would miss its synchronization slot. */
        SatCounter distStable;
        bool valid = false;

        /** @return true when the path check should be applied. */
        bool pathCheckUsable() const { return pathStable.atLeast(2); }
    };

    explicit Mdpt(const SyncUnitConfig &config);

    /** Append indices of valid entries whose LDPC matches, most
     *  recently allocated first. */
    void
    lookupLoad(Addr ldpc, std::vector<uint32_t> &out) const
    {
        byLoad.append(ldpc, out);
    }

    /** Append indices of valid entries whose STPC matches, most
     *  recently allocated first. */
    void
    lookupStore(Addr stpc, std::vector<uint32_t> &out) const
    {
        byStore.append(stpc, out);
    }

    /** @return true if any valid entry's STPC matches. */
    bool matchesStore(Addr stpc) const { return byStore.contains(stpc); }

    const Entry &entry(uint32_t idx) const { return entries[idx]; }
    Entry &entry(uint32_t idx) { return entries[idx]; }

    /** @return true when the entry currently predicts synchronization
     *  (ignoring any path check, which needs runtime task context). */
    bool
    predicts(uint32_t idx) const
    {
        if (cfg.predictor == PredictorKind::AlwaysSync)
            return true;
        return entries[idx].counter.atLeast(cfg.threshold);
    }

    /** Tag under which a load instance looks up its synchronization
     *  slot: its instance number, or an address hash (section 3). */
    uint64_t
    loadTag(uint64_t instance, Addr addr) const
    {
        return cfg.tags == TagScheme::Address ? mix64(addr) : instance;
    }

    /** Tag under which a store instance signals through entry @p e:
     *  the consuming load's instance (instance + DIST), or an address
     *  hash. */
    uint64_t
    storeTag(const Entry &e, uint64_t instance, Addr addr) const
    {
        return cfg.tags == TagScheme::Address ? mix64(addr)
                                              : instance + e.dist;
    }

    /**
     * ESYNC path check: does the task at the recorded distance before
     * @p load_instance match @p e's producing-task PC?  True whenever
     * the check does not apply: another predictor, no task-PC context
     * (@p tps null), or a path that proved unstable.
     */
    bool pathMatches(const Entry &e, uint64_t load_instance,
                     const TaskPcSource *tps) const;

    /** Result of recording a mis-speculation. */
    struct AllocResult
    {
        uint32_t index = 0;
        bool evictedValid = false;  ///< a valid victim was displaced
    };

    /**
     * Record a mis-speculation on (ldpc, stpc): strengthen an existing
     * entry (updating DIST and path context, which may have changed) or
     * allocate a new one with the configured initial count.
     */
    AllocResult recordMisSpeculation(Addr ldpc, Addr stpc, uint32_t dist,
                                     Addr store_task_pc);

    /** Weaken the entry's prediction (false dependence observed). */
    void weaken(uint32_t idx);

    /** Strengthen the entry's prediction (synchronization succeeded). */
    void strengthen(uint32_t idx);

    /** Refresh LRU recency for an entry. */
    void touch(uint32_t idx) { lru.touch(idx); }

    size_t capacity() const { return entries.size(); }
    size_t occupancy() const;

    const SyncUnitConfig &config() const { return cfg; }

  private:
    /**
     * The entries that share one PC, as a chain through per-entry
     * links whose head a FlatHashMap finds.  push() links an entry at
     * the front, so a walk yields the most recently pushed first.
     */
    class PcChains
    {
      public:
        explicit PcChains(size_t n) : links(n) { heads.reserve(n); }

        bool contains(Addr pc) const { return heads.contains(pc); }

        void
        append(Addr pc, std::vector<uint32_t> &out) const
        {
            const uint32_t *h = heads.find(pc);
            for (uint32_t i = h ? *h : kEnd; i != kEnd; i = links[i].next)
                out.push_back(i);
        }

        /** First entry on @p pc's chain satisfying @p pred, or kEnd. */
        template <class Pred>
        uint32_t
        find(Addr pc, Pred pred) const
        {
            const uint32_t *h = heads.find(pc);
            for (uint32_t i = h ? *h : kEnd; i != kEnd; i = links[i].next)
                if (pred(i))
                    return i;
            return kEnd;
        }

        void
        push(Addr pc, uint32_t idx)
        {
            uint32_t *h = heads.find(pc);
            links[idx] = {kEnd, h ? *h : kEnd};
            if (h) {
                links[*h].prev = idx;
                *h = idx;
            } else {
                heads[pc] = idx;
            }
        }

        void
        unlink(Addr pc, uint32_t idx)
        {
            const Link l = links[idx];
            if (l.next != kEnd)
                links[l.next].prev = l.prev;
            if (l.prev != kEnd)
                links[l.prev].next = l.next;
            else if (l.next != kEnd)
                *heads.find(pc) = l.next;
            else
                heads.erase(pc);
        }

        static constexpr uint32_t kEnd = UINT32_MAX;

      private:
        struct Link
        {
            uint32_t prev = kEnd;
            uint32_t next = kEnd;
        };

        FlatHashMap<Addr, uint32_t> heads;
        std::vector<Link> links;
    };

    SyncUnitConfig cfg;
    std::vector<Entry> entries;
    LruState lru;
    PcChains byLoad;
    PcChains byStore;
};

} // namespace mdp

#endif // MDP_MDP_MDPT_HH
