/**
 * @file
 * Address Resolution Buffer: tracks speculatively executed loads and
 * in-flight store versions per address, detecting memory dependence
 * violations (after Franklin & Sohi's ARB, which the simulated
 * Multiscalar uses for disambiguation).
 */

#ifndef MDP_MULTISCALAR_ARB_HH
#define MDP_MULTISCALAR_ARB_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/flat_hash.hh"
#include "trace/microop.hh"

namespace mdp
{

/**
 * Violation detector and version oracle over the in-flight window.
 *
 * The owner calls loadExecuted()/storeExecuted() at execution,
 * commit*() at task commit, and remove*() for squashed operations.
 */
class Arb
{
  public:
    /**
     * Record an executing load and determine the version (store
     * sequence number) it observes: the newest executed or committed
     * store to the address older than the load, kNoSeq if none.
     */
    SeqNum loadExecuted(Addr addr, SeqNum load, uint32_t load_task);

    /**
     * Record an executing store and check for violations.
     * @return the sequence number of the *earliest* executed load that
     * (a) is younger than the store, (b) belongs to a later task, and
     * (c) observed a version older than this store -- or kNoSeq when
     * the speculation was safe.
     */
    SeqNum storeExecuted(Addr addr, SeqNum store, uint32_t store_task);

    /**
     * Re-scan for a violator without re-recording the store (used
     * after a benign value-predicted violation is absorbed).
     */
    SeqNum findViolator(Addr addr, SeqNum store,
                        uint32_t store_task) const;

    /**
     * Update a load's observed version to @p version: a value
     * prediction absorbed the store's effect, so the load now counts
     * as having seen it.
     */
    void refreshLoadVersion(Addr addr, SeqNum load, SeqNum version);

    /** Retire a load: it can no longer be violated. */
    void commitLoad(Addr addr, SeqNum load);

    /** Retire a store: fold it into the committed version. */
    void commitStore(Addr addr, SeqNum store);

    /** Remove a squashed, previously executed load. */
    void removeLoad(Addr addr, SeqNum load);

    /** Remove a squashed, previously executed store. */
    void removeStore(Addr addr, SeqNum store);

    /** In-flight tracked loads (for tests / invariant checks). */
    size_t trackedLoads() const { return numTrackedLoads; }

  private:
    /**
     * Per-address executed-load records in SoA form: three parallel
     * lanes (sequence number, observed version, owning task), so the
     * violation probe scans packed 32-bit lanes instead of striding
     * over 12-byte records.
     */
    struct LoadLanes
    {
        std::vector<SeqNum> seq;
        std::vector<SeqNum> version;
        std::vector<uint32_t> task;

        size_t size() const { return seq.size(); }
        bool empty() const { return seq.empty(); }

        void
        push(SeqNum s, SeqNum v, uint32_t t)
        {
            seq.push_back(s);
            version.push_back(v);
            task.push_back(t);
        }

        /** Drop every record whose seq matches, keeping lane order. */
        void
        eraseSeq(SeqNum s, size_t &removed)
        {
            size_t w = 0;
            for (size_t r = 0; r < seq.size(); ++r) {
                if (seq[r] == s)
                    continue;
                seq[w] = seq[r];
                version[w] = version[r];
                task[w] = task[r];
                ++w;
            }
            removed = seq.size() - w;
            seq.resize(w);
            version.resize(w);
            task.resize(w);
        }
    };

    // The committedVersion lookup alone is ~10% of a fig5 sweep's
    // profile; none of these maps is ever iterated, so the flat
    // open-addressed table is safe (and FlatHashMap could not leak
    // an order anyway -- it has no iteration API).
    FlatHashMap<Addr, LoadLanes> loads;
    FlatHashMap<Addr, std::vector<SeqNum>> inflightStores;
    FlatHashMap<Addr, SeqNum> committedVersion;
    size_t numTrackedLoads = 0;

    /** Emptied per-address lane triples, retained for their vector
     *  capacity.  Per-address load sets empty and refill constantly
     *  (loads commit fast), and without recycling every refill costs
     *  three fresh allocations; the freelist keeps the `loads` table
     *  small (entries still erase on empty) without the malloc
     *  round-trip.  Never affects results -- recycled lanes are
     *  empty, only their capacity differs. */
    std::vector<LoadLanes> laneFreelist;
};

} // namespace mdp

#endif // MDP_MULTISCALAR_ARB_HH
