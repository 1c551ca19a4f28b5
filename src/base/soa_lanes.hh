/**
 * @file
 * Packed structure-of-arrays storage for per-op timing-model state.
 *
 * Both timing models used to keep one `struct OpState { uint64_t
 * doneCycle; uint16_t flags; }` per dynamic instruction.  The dense
 * per-cycle loops (completion scan, wakeup match) touch only one of
 * the two fields at a time, so the AoS layout wastes half of every
 * cache line.  OpLanes stores the same state as two parallel lanes --
 * a completion-time lane and a status bitmask lane -- behind the same
 * accessor vocabulary; every per-element access goes through the
 * accessors, so the layout stays swappable.
 */

#ifndef MDP_BASE_SOA_LANES_HH
#define MDP_BASE_SOA_LANES_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mdp
{

/**
 * The per-op state pool: completion-time and status-flag lanes of one
 * fixed size, zero-initialized.
 */
class OpLanes
{
  public:
    /** @param n pool size. */
    explicit OpLanes(size_t n) : doneLane(n, 0), flagsLane(n, 0) {}

    size_t size() const { return doneLane.size(); }

    uint64_t done(size_t i) const { return doneLane[i]; }
    void setDone(size_t i, uint64_t v) { doneLane[i] = v; }

    uint16_t flags(size_t i) const { return flagsLane[i]; }
    bool test(size_t i, uint16_t mask) const
    {
        return (flagsLane[i] & mask) != 0;
    }
    void set(size_t i, uint16_t mask) { flagsLane[i] |= mask; }
    void clear(size_t i, uint16_t mask)
    {
        flagsLane[i] &= static_cast<uint16_t>(~mask);
    }

    /** Back to the freshly-constructed state (doneCycle 0, no flags). */
    void
    resetOp(size_t i)
    {
        doneLane[i] = 0;
        flagsLane[i] = 0;
    }

    /**
     * Immutable flags-lane view for fused scan loops.  Going through
     * the pool accessor re-derives the lane base on every probe,
     * because the compiler cannot prove loop-body stores leave the
     * vector header alone; a view pins the base once.  Only valid
     * until the pool is resized or moved, and reads through it see
     * in-place flag updates (the lane never reallocates mid-scan).
     */
    class FlagsView
    {
      public:
        bool
        test(size_t i, uint16_t mask) const
        {
            return (lane[i] & mask) != 0;
        }

        /** The first index in [begin, end) with no bit of @p mask set,
         *  or end: lets a scan hop over runs of skipped ops in one
         *  tight loop. */
        size_t
        nextClear(size_t begin, size_t end, uint16_t mask) const
        {
            while (begin < end && (lane[begin] & mask))
                ++begin;
            return begin;
        }

      private:
        friend class OpLanes;
        explicit FlagsView(const uint16_t *p) : lane(p) {}
        const uint16_t *lane;
    };

    FlagsView flagsView() const { return FlagsView(flagsLane.data()); }

  private:
    std::vector<uint64_t> doneLane;
    std::vector<uint16_t> flagsLane;
};

} // namespace mdp

#endif // MDP_BASE_SOA_LANES_HH
