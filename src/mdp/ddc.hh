/**
 * @file
 * The Data Dependence Cache (DDC) of section 5.3.
 *
 * A DDC of size n records the static store-load pairs behind the n most
 * recent mis-speculations.  Its miss rate measures the temporal locality
 * of the dependences that cause mis-speculations, which is the empirical
 * justification for a small MDPT (Tables 5 and 7).
 */

#ifndef MDP_MDP_DDC_HH
#define MDP_MDP_DDC_HH

#include <cstdint>
#include <vector>

#include "base/flat_hash.hh"
#include "base/lru.hh"
#include "trace/microop.hh"

namespace mdp
{

/**
 * Fully-associative cache of (load PC, store PC) pairs with LRU
 * replacement.
 */
class DepDependenceCache
{
  public:
    /** @param num_entries Capacity; 0 is invalid. */
    explicit DepDependenceCache(size_t num_entries);

    /**
     * Record a mis-speculation on the given static pair.  Counts a hit
     * when the pair is already cached (and refreshes its recency),
     * otherwise counts a miss and allocates, evicting LRU if full.
     * @return true on hit.
     */
    bool access(Addr load_pc, Addr store_pc);

    uint64_t hits() const { return numHits; }
    uint64_t misses() const { return numMisses; }
    uint64_t accesses() const { return numHits + numMisses; }

    /** Miss rate in [0,1]; 0 when never accessed. */
    double
    missRate() const
    {
        uint64_t n = accesses();
        return n ? static_cast<double>(numMisses) / n : 0.0;
    }

    size_t capacity() const { return entries.size(); }

    /** Number of currently valid entries. */
    size_t occupancy() const { return index.size(); }

  private:
    struct Entry
    {
        Addr loadPc = 0;
        Addr storePc = 0;
        bool valid = false;
    };

    static uint64_t
    key(Addr load_pc, Addr store_pc)
    {
        return (load_pc << 20) ^ store_pc;
    }

    std::vector<Entry> entries;
    FlatHashMap<uint64_t, size_t> index;
    LruState lru;
    uint64_t numHits = 0;
    uint64_t numMisses = 0;
};

} // namespace mdp

#endif // MDP_MDP_DDC_HH
