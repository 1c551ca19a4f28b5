/**
 * @file
 * Confidence-gated last-value prediction, the hybrid the paper's
 * section 6 sketches: "a data speculation approach that uses value
 * prediction only when dependences are likely to exist".
 *
 * The structure does not track values themselves (the timing models
 * replay traces, where value-repetition is a precomputed property of
 * each store); it tracks per-load-PC *confidence* that the dependent
 * value will repeat, trained from observed violations.
 */

#ifndef MDP_MDP_VALUE_PRED_HH
#define MDP_MDP_VALUE_PRED_HH

#include <cstdint>
#include <vector>

#include "base/flat_hash.hh"
#include "base/lru.hh"
#include "base/sat_counter.hh"
#include "trace/microop.hh"

namespace mdp
{

/**
 * A small associative pool of per-PC confidence counters.
 */
class ValuePredictor
{
  public:
    /**
     * @param pool_size  Entry count (LRU replaced).
     * @param bits       Confidence counter width.
     * @param threshold  Confidence needed to predict.
     */
    explicit ValuePredictor(size_t pool_size = 64, unsigned bits = 2,
                            unsigned threshold = 3);

    /** Should a dependent load at this PC consume a predicted value
     *  instead of synchronizing? */
    bool confident(Addr load_pc);

    /**
     * Learn from an observed outcome: when a violation (or would-be
     * violation) on @p load_pc was examined, did the producing store
     * repeat its previous value?
     */
    void train(Addr load_pc, bool value_repeated);

    size_t occupancy() const { return index.size(); }

  private:
    struct Entry
    {
        Addr pc = 0;
        SatCounter conf;
        bool valid = false;
    };

    Entry &lookupOrAllocate(Addr pc);

    unsigned bits;
    unsigned thresh;
    std::vector<Entry> entries;
    FlatHashMap<Addr, size_t> index;
    LruState lru;
};

} // namespace mdp

#endif // MDP_MDP_VALUE_PRED_HH
