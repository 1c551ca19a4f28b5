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
 * Stores commit in program order, so a committed store is older than
 * every store that can still execute: a load that read it can never be
 * flagged by an older store, exactly as if it had read memory, and the
 * ARB keeps no committed versions (storeExecuted() checks the order).
 * Once the node pool and the line table have grown to the window, it
 * allocates nothing more.
 */
class Arb
{
  public:
    /**
     * Record an executing load and determine the version (store
     * sequence number) it observes: the newest executed, uncommitted
     * store to the address older than the load, kNoSeq if none.
     */
    SeqNum loadExecuted(Addr addr, SeqNum load, uint32_t load_task);

    /**
     * Record an executing store and check for violations.
     * @return the sequence number of the *earliest* executed load that
     * (a) is younger than the store, (b) belongs to a later task, and
     * (c) observed a version older than this store -- or kNoSeq when
     * the speculation was safe.  Fatal for a store older than a
     * committed one: commit must be in program order.
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

    /** Retire a store: it no longer versions any load. */
    void commitStore(Addr addr, SeqNum store);

    /** Remove a squashed, previously executed load. */
    void removeLoad(Addr addr, SeqNum load);

    /** Remove a squashed, previously executed store. */
    void removeStore(Addr addr, SeqNum store);

    /** In-flight tracked loads (for tests / invariant checks). */
    size_t trackedLoads() const { return numTrackedLoads; }

  private:
    static constexpr uint32_t kNil = UINT32_MAX;

    /** One record on an address's list: an executed load (its seq,
     *  the version it observed and its task) or an in-flight store
     *  (seq only).  Nodes live in one pool and chain by index. */
    struct Node
    {
        SeqNum seq;
        SeqNum version;
        uint32_t task;
        uint32_t next;
    };

    /** Heads of one address's executed-load and in-flight-store
     *  lists.  List order carries no meaning: every query is a
     *  minimum, a maximum or a match over the whole list. */
    struct Line
    {
        uint32_t loads = kNil;
        uint32_t stores = kNil;

        bool empty() const { return loads == kNil && stores == kNil; }
    };

    /** Push a node onto the list at @p head, reusing a freed one. */
    void push(uint32_t &head, SeqNum seq, SeqNum version, uint32_t task);
    /** Free every node of the list at @p head whose seq is @p seq.
     *  @return how many were freed. */
    size_t unlink(uint32_t &head, SeqNum seq);
    /** findViolator() over one line's loads. */
    SeqNum violatorOn(const Line &line, SeqNum store,
                      uint32_t store_task) const;

    // The table is never iterated, so the flat open-addressed table
    // is safe (FlatHashMap could not leak an order anyway -- it has no
    // iteration API).  A line lives only while the address has an
    // executed load or an in-flight store, so `lines` stays
    // window-sized.
    FlatHashMap<Addr, Line> lines;
    SeqNum newestCommitted = 0; ///< newest committed store (0: none)
    std::vector<Node> pool;
    uint32_t freeNodes = kNil;   ///< free list through Node::next
    size_t numTrackedLoads = 0;
};

} // namespace mdp

#endif // MDP_MULTISCALAR_ARB_HH
