/**
 * @file
 * Banked data-cache + shared-bus timing model (section 5.2): a
 * crossbar connects the processing units to interleaved direct-mapped
 * data banks; all misses share one split-transaction memory bus.
 */

#ifndef MDP_MULTISCALAR_MEMSYS_HH
#define MDP_MULTISCALAR_MEMSYS_HH

#include <cstdint>
#include <vector>

#include "multiscalar/config.hh"
#include "trace/microop.hh"

namespace mdp
{

/**
 * Timing-only memory system: returns the completion cycle of each
 * access and tracks bank/bus contention.  State is tags only (the
 * simulator replays a trace, so data values are never needed).
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MultiscalarConfig &config);

    /**
     * Perform a timed access.
     * @param addr   effective address
     * @param now    issue cycle
     * @param is_store store accesses complete in one cycle after bank
     *                 access (write buffering) but still occupy the
     *                 bank and allocate on miss
     * @return completion cycle of the access
     */
    uint64_t access(Addr addr, uint64_t now, bool is_store);

    uint64_t hits() const { return numHits; }
    uint64_t misses() const { return numMisses; }

  private:
    unsigned bankOf(Addr addr) const;

    MultiscalarConfig cfg;
    unsigned linesPerBank;
    /** Direct-mapped tag arrays, flattened to one allocation indexed
     *  bank * linesPerBank + set (0 = invalid): every access touches a
     *  tag, and the flat layout avoids a second pointer chase. */
    std::vector<uint64_t> tags;
    /** Next cycle each bank can accept an access. */
    std::vector<uint64_t> bankFree;
    uint64_t busFree = 0;
    uint64_t numHits = 0;
    uint64_t numMisses = 0;
};

} // namespace mdp

#endif // MDP_MULTISCALAR_MEMSYS_HH
