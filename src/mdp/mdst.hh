/**
 * @file
 * The Memory Dependence Synchronization Table (MDST) of section 4.2.
 *
 * An entry supplies a condition variable (the full/empty flag) used to
 * synchronize one dynamic instance of a static store-load dependence.
 * Fields per entry: valid (V), load PC (LDPC), store PC (STPC), load
 * identifier (LDID), store identifier (STID), instance tag (INSTANCE)
 * and the full/empty flag (F/E).
 */

#ifndef MDP_MDP_MDST_HH
#define MDP_MDP_MDST_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/microop.hh"

namespace mdp
{

/** Identifies a dynamic load in the OoO core (we use sequence numbers;
 *  a real core would use e.g. reservation-station indices). */
using LoadId = uint32_t;
constexpr LoadId kNoLoad = UINT32_MAX;

/**
 * Fully-associative pool of synchronization entries, searched by
 * scanning it in index order, as section 4.2's associative lookup.
 *
 * Replacement under pressure follows section 4.4.2: take the lowest
 * invalid entry, else scavenge the least recently allocated full entry
 * (its synchronization may never be consumed), and only then steal the
 * least recently allocated waiting entry, whose load the owner must
 * release.  One allocation stamp per entry orders the last two.
 */
class Mdst
{
  public:
    struct Entry
    {
        Addr ldpc = 0;
        Addr stpc = 0;
        uint64_t instance = 0;    ///< instance tag (distance or address)
        LoadId ldid = kNoLoad;    ///< waiting load, when empty
        uint64_t stid = 0;        ///< creating/signalling store id
        bool full = false;        ///< the condition variable
        bool valid = false;
    };

    explicit Mdst(size_t num_entries);

    /** Find the entry for a dynamic dependence instance. */
    int find(Addr ldpc, Addr stpc, uint64_t instance) const;

    /**
     * Allocate an entry.  @return the index, and reports in
     * @p displaced_load a waiting load that had to be released to make
     * room (kNoLoad when none).
     */
    uint32_t allocate(Addr ldpc, Addr stpc, uint64_t instance,
                      LoadId ldid, uint64_t stid, bool full,
                      LoadId &displaced_load);

    const Entry &entry(uint32_t idx) const { return entries[idx]; }

    /** Attach/detach the waiting load of an entry (kNoLoad detaches). */
    void setLdid(uint32_t idx, LoadId ldid) { entries[idx].ldid = ldid; }

    /** Record the signalling store of an entry. */
    void setStid(uint32_t idx, uint64_t stid) { entries[idx].stid = stid; }

    /** Set the full/empty flag of an entry to full. */
    void signal(uint32_t idx) { entries[idx].full = true; }

    void free(uint32_t idx);

    /** Append indices of valid, empty entries waiting on @p ldid, in
     *  ascending order. */
    void waitingFor(LoadId ldid, std::vector<uint32_t> &out) const;

    size_t capacity() const { return entries.size(); }
    size_t occupancy() const;

  private:
    std::vector<Entry> entries;
    /** Allocation order per entry: larger is more recent. */
    std::vector<uint64_t> stamps;
    uint64_t tick = 0;
};

} // namespace mdp

#endif // MDP_MDP_MDST_HH
